// IncrementalMetrics against the from-scratch metrics, step by step, on a
// journaled PlatformState: random node and bus occupies, rollbacks to
// earlier marks, and re-commits of the rolled-back records — including steps
// that restore identical occupancy and steps that split or merge one gap.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "sched/platform_state.h"
#include "sched/slack.h"
#include "util/rng.h"

namespace ides {
namespace {

FutureProfile smallProfile() {
  FutureProfile p;
  p.tmin = 300;  // four windows over the 1200-tick horizon
  p.tneed = 120;
  p.bneedBytes = 40;
  p.wcetDistribution =
      DiscreteDistribution({{10, 0.3}, {30, 0.4}, {60, 0.2}, {120, 0.1}});
  p.messageSizeDistribution =
      DiscreteDistribution({{2, 0.2}, {4, 0.4}, {6, 0.3}, {8, 0.1}});
  return p;
}

std::size_t freeIntervalCount(const PlatformState& st) {
  std::size_t count = 0;
  for (std::size_t n = 0; n < st.nodeCount(); ++n) {
    count += st.nodeFree(NodeId{static_cast<std::int32_t>(n)}).size();
  }
  return count;
}

/// The walk: one journaled state, the cache under test, and the records a
/// rollback undid (re-committable while the state still sits at their mark).
class Walk {
 public:
  explicit Walk(std::uint64_t seed)
      : arch_(makeUniformArchitecture(3, 10, 2)),  // round 30, 2 bytes/tick
        state_(arch_, 1200),
        rng_(seed) {
    for (std::size_t n = 0; n < state_.nodeCount(); ++n) {
      // A pre-journal floor no rollback crosses.
      const NodeId id{static_cast<std::int32_t>(n)};
      const Time offset = 40 * static_cast<Time>(n);
      state_.occupyNode(id, {offset, offset + 50});
      state_.occupyNode(id, {900, 960});
    }
    state_.occupyBus(0, 0, 4);
    state_.setJournaling(true);
    for (std::size_t n = 0; n < state_.nodeCount(); ++n) {
      allNodes_.push_back(static_cast<std::uint32_t>(n));
    }
    const auto rounds = static_cast<std::uint64_t>(state_.roundCount());
    for (std::uint64_t k = 0; k < state_.bus().slotCount() * rounds; ++k) {
      allOccs_.push_back(k);
    }
    cache_.rebuild(state_, profile_);
  }

  /// One random step, then the cache must match the full computation.
  void step() {
    const std::int64_t kind = rng_.uniformInt(0, 99);
    if (kind < 35) {
      occupyNode();
    } else if (kind < 55) {
      occupyBus();
    } else if (kind < 70) {
      rollback();
    } else if (kind < 80) {
      recommitPending();
    } else if (kind < 90) {
      // Occupy, then undo it before the cache looks: identical occupancy.
      const PlatformState::Mark m = state_.mark();
      const std::size_t marksBefore = marks_.size();
      occupyNode();
      occupyBus();
      state_.rollbackTo(m);
      marks_.resize(marksBefore);
      pendingValid_ = false;
    } else {
      // Rewind and re-commit the same records at once, a re-schedule that
      // comes back unchanged: identical occupancy again.
      rollback();
      recommitPending();
    }
    expectSynced();
  }

  int splits = 0;
  int merges = 0;
  int recommits = 0;

 private:
  void occupyNode() {
    const NodeId node{
        static_cast<std::int32_t>(rng_.index(state_.nodeCount()))};
    const IntervalSet free = state_.nodeFree(node);
    if (free.empty()) return;
    const Interval gap = rng_.pick(free.intervals());
    Interval iv;
    if (gap.length() >= 3 && rng_.chance(0.5)) {
      iv.start = rng_.uniformInt(gap.start + 1, gap.end - 2);
      iv.end = rng_.uniformInt(iv.start + 1, gap.end - 1);
      splits += 1;
    } else {
      const Time width = rng_.uniformInt(1, gap.length());
      iv = rng_.chance(0.5) ? Interval{gap.start, gap.start + width}
                            : Interval{gap.end - width, gap.end};
    }
    marks_.push_back(state_.mark());
    state_.occupyNode(node, iv);
    pendingValid_ = false;
  }

  void occupyBus() {
    const std::size_t slot = rng_.index(state_.bus().slotCount());
    const std::int64_t round = rng_.uniformInt(0, state_.roundCount() - 1);
    const Time room = state_.slotFreeTicks(slot, round);
    if (room <= 0) return;
    marks_.push_back(state_.mark());
    state_.occupyBus(slot, round, rng_.uniformInt(1, room));
    pendingValid_ = false;
  }

  void rollback() {
    if (marks_.empty()) return;
    const std::size_t k = rng_.index(marks_.size());
    const std::vector<PlatformState::JournalEntry>& journal = state_.journal();
    pending_.assign(journal.begin() + static_cast<std::ptrdiff_t>(marks_[k]),
                    journal.end());
    const std::size_t gapsBefore = freeIntervalCount(state_);
    state_.rollbackTo(marks_[k]);
    if (freeIntervalCount(state_) < gapsBefore) merges += 1;
    marks_.resize(k);
    pendingValid_ = true;
  }

  /// Re-commits the records the last rollback undid, oldest first, through
  /// the occupy paths: the journal grows back by the same records.
  void recommitPending() {
    if (!pendingValid_) return;
    for (const PlatformState::JournalEntry& e : pending_) {
      if (e.kind == PlatformState::JournalEntry::Kind::Node) {
        state_.occupyNode(NodeId{static_cast<std::int32_t>(e.index)}, e.iv);
      } else {
        state_.occupyBus(e.index, e.round, e.txTicks);
      }
    }
    pendingValid_ = false;
    recommits += 1;
  }

  void expectSynced() {
    cache_.update(state_, allNodes_, allOccs_);
    const DesignMetrics got = cache_.metrics(profile_);
    const DesignMetrics want = computeMetrics(extractSlack(state_), profile_);
    // Exact equality, doubles included: the cache is bit-identical.
    ASSERT_EQ(got.c1p, want.c1p);
    ASSERT_EQ(got.c1m, want.c1m);
    ASSERT_EQ(got.c2p, want.c2p);
    ASSERT_EQ(got.c2mBytes, want.c2mBytes);
  }

  const FutureProfile profile_ = smallProfile();
  Architecture arch_;
  PlatformState state_;
  Rng rng_;
  IncrementalMetrics cache_;
  std::vector<std::uint32_t> allNodes_;
  std::vector<std::uint64_t> allOccs_;
  std::vector<PlatformState::Mark> marks_;
  std::vector<PlatformState::JournalEntry> pending_;
  bool pendingValid_ = false;
};

TEST(IncrementalMetricsProperty, MatchesComputeMetricsUnderJournalChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Walk walk(seed);
    for (int i = 0; i < 400; ++i) {
      walk.step();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << i;
      }
    }
    EXPECT_GT(walk.splits, 20) << "seed " << seed;
    EXPECT_GT(walk.merges, 10) << "seed " << seed;
    EXPECT_GT(walk.recommits, 10) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ides
