// IncrementalMetrics against the from-scratch metrics, step by step, on a
// PlatformState moved the way EvalContext moves it: random node and bus
// occupies, releases of random committed records, and re-commits of the
// released records — including steps that restore identical occupancy and
// steps that split or merge one gap. Each sync names exactly the nodes and
// slot occurrences the step touched.
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

/// The walk: one state, the cache under test, the records committed on top
/// of a floor, and the records the last release took off (re-committable).
class Walk {
 public:
  explicit Walk(std::uint64_t seed)
      : arch_(makeUniformArchitecture(3, 10, 2)),  // round 30, 2 bytes/tick
        state_(arch_, 1200),
        rng_(seed) {
    for (std::size_t n = 0; n < state_.nodeCount(); ++n) {
      // A floor no release names.
      const NodeId id{static_cast<std::int32_t>(n)};
      const Time offset = 40 * static_cast<Time>(n);
      state_.occupyNode(id, {offset, offset + 50});
      state_.occupyNode(id, {900, 960});
    }
    state_.occupyBus(0, 0, 4);
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
      release();
    } else if (kind < 80) {
      recommitReleased();
    } else if (kind < 90) {
      // Occupy, then release it before the cache looks: identical
      // occupancy, though the touched entries are still named dirty.
      const std::size_t before = records_.size();
      occupyNode();
      occupyBus();
      while (records_.size() > before) {
        releaseRecord(records_.back());
        records_.pop_back();
      }
      released_.clear();
    } else {
      // Release and re-commit the same records at once, a re-placement
      // that comes back unchanged: identical occupancy again.
      release();
      recommitReleased();
    }
    expectSynced();
  }

  int splits = 0;
  int merges = 0;
  int recommits = 0;

 private:
  struct Record {
    bool node = false;
    std::size_t index = 0;  ///< node or slot
    Interval iv;            ///< node record
    std::int64_t round = 0;  ///< bus record
    Time ticks = 0;
  };

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
    commit({true, static_cast<std::size_t>(node.index()), iv});
    released_.clear();
  }

  void occupyBus() {
    const std::size_t slot = rng_.index(state_.bus().slotCount());
    const std::int64_t round = rng_.uniformInt(0, state_.roundCount() - 1);
    const Time room = state_.slotFreeTicks(slot, round);
    if (room <= 0) return;
    commit({false, slot, Interval{}, round, rng_.uniformInt(1, room)});
    released_.clear();
  }

  /// Takes one to three random committed records off, in random order.
  void release() {
    released_.clear();
    const std::size_t gapsBefore = freeIntervalCount(state_);
    const std::size_t batch = static_cast<std::size_t>(rng_.uniformInt(1, 3));
    for (std::size_t b = 0; b < batch && !records_.empty(); ++b) {
      const std::size_t k = rng_.index(records_.size());
      releaseRecord(records_[k]);
      released_.push_back(records_[k]);
      records_[k] = records_.back();
      records_.pop_back();
    }
    if (freeIntervalCount(state_) < gapsBefore) merges += 1;
  }

  /// Re-commits the records the last release took off, through the occupy
  /// paths.
  void recommitReleased() {
    if (released_.empty()) return;
    for (const Record& r : released_) commit(r);
    released_.clear();
    recommits += 1;
  }

  void commit(const Record& r) {
    if (r.node) {
      state_.occupyNode(NodeId{static_cast<std::int32_t>(r.index)}, r.iv);
    } else {
      state_.occupyBus(r.index, r.round, r.ticks);
    }
    touch(r);
    records_.push_back(r);
  }

  void releaseRecord(const Record& r) {
    if (r.node) {
      state_.releaseNode(NodeId{static_cast<std::int32_t>(r.index)}, r.iv);
    } else {
      state_.releaseBus(r.index, r.round, r.ticks);
    }
    touch(r);
  }

  /// Names the record's node or occurrence dirty (duplicates are fine).
  void touch(const Record& r) {
    if (r.node) {
      dirtyNodes_.push_back(static_cast<std::uint32_t>(r.index));
    } else {
      dirtyOccs_.push_back(
          static_cast<std::uint64_t>(r.index) *
              static_cast<std::uint64_t>(state_.roundCount()) +
          static_cast<std::uint64_t>(r.round));
    }
  }

  void expectSynced() {
    cache_.update(state_, dirtyNodes_, dirtyOccs_);
    dirtyNodes_.clear();
    dirtyOccs_.clear();
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
  std::vector<std::uint32_t> dirtyNodes_;
  std::vector<std::uint64_t> dirtyOccs_;
  std::vector<Record> records_;
  std::vector<Record> released_;
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
