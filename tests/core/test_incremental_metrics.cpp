// IncrementalMetrics against the from-scratch metrics and slack: the
// snapshot's edits one by one (exact inverses, coalesced neighbours,
// guards), and step by step under the churn EvalContext's commits put it
// through — random node and bus occupies, releases of random committed
// records and re-commits of the released records, including steps that
// restore identical occupancy and steps that split or merge one gap. The
// reference for every comparison is a PlatformState rebuilt from the floor
// plus the surviving records.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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

/// 3 nodes, round 30, 2 bytes per tick, 1200-tick horizon (40 rounds).
const Architecture& smallArch() {
  static const Architecture arch = makeUniformArchitecture(3, 10, 2);
  return arch;
}

std::size_t freeIntervalCount(const PlatformState& st) {
  std::size_t count = 0;
  for (std::size_t n = 0; n < st.nodeCount(); ++n) {
    count += st.nodeFree(NodeId{static_cast<std::int32_t>(n)}).size();
  }
  return count;
}

/// The snapshot describes `state`: metrics bit for bit (doubles compared
/// exactly) and slack entry for entry.
void expectDescribes(IncrementalMetrics& snapshot, const PlatformState& state,
                     const FutureProfile& profile) {
  const SlackInfo want = extractSlack(state);
  const DesignMetrics wantMetrics = computeMetrics(want, profile);
  const DesignMetrics got = snapshot.metrics(profile);
  ASSERT_EQ(got.c1p, wantMetrics.c1p);
  ASSERT_EQ(got.c1m, wantMetrics.c1m);
  ASSERT_EQ(got.c2p, wantMetrics.c2p);
  ASSERT_EQ(got.c2mBytes, wantMetrics.c2mBytes);
  SlackInfo slack;
  snapshot.slackInto(slack);
  ASSERT_EQ(slack.horizon, want.horizon);
  ASSERT_EQ(slack.busBytesPerTick, want.busBytesPerTick);
  ASSERT_EQ(slack.nodeFree, want.nodeFree);
  ASSERT_EQ(slack.busChunks.size(), want.busChunks.size());
  for (std::size_t i = 0; i < want.busChunks.size(); ++i) {
    ASSERT_EQ(slack.busChunks[i].slotIndex, want.busChunks[i].slotIndex);
    ASSERT_EQ(slack.busChunks[i].round, want.busChunks[i].round);
    ASSERT_EQ(slack.busChunks[i].start, want.busChunks[i].start);
    ASSERT_EQ(slack.busChunks[i].freeTicks, want.busChunks[i].freeTicks);
  }
}

// ---- the four edits -------------------------------------------------------

TEST(IncrementalMetricsEdits, ReleaseIsTheExactInverseOfOccupy) {
  const FutureProfile profile = smallProfile();
  PlatformState floor(smallArch(), 1200);
  floor.occupyNode(NodeId{0}, {0, 15});  // a floor no release names
  IncrementalMetrics snapshot;
  snapshot.rebuild(floor, profile);

  snapshot.occupyNode(NodeId{0}, {15, 30});  // grows the floor's member
  snapshot.occupyNode(NodeId{1}, {40, 60});
  snapshot.occupyBus(0, 2, 7);
  snapshot.occupyNode(NodeId{0}, {100, 120});
  snapshot.occupyBus(0, 2, 3);  // same occurrence, packs behind the 7
  snapshot.occupyNode(NodeId{2}, {290, 310});  // straddles two windows
  PlatformState all = floor;
  all.occupyNode(NodeId{0}, {15, 30});
  all.occupyNode(NodeId{1}, {40, 60});
  all.occupyBus(0, 2, 10);
  all.occupyNode(NodeId{0}, {100, 120});
  all.occupyNode(NodeId{2}, {290, 310});
  expectDescribes(snapshot, all, profile);

  snapshot.releaseBus(0, 2, 3);
  snapshot.releaseNode(NodeId{0}, {100, 120});
  snapshot.releaseNode(NodeId{2}, {290, 310});
  PlatformState some = floor;
  some.occupyNode(NodeId{0}, {15, 30});
  some.occupyNode(NodeId{1}, {40, 60});
  some.occupyBus(0, 2, 7);
  expectDescribes(snapshot, some, profile);

  snapshot.releaseNode(NodeId{0}, {15, 30});
  snapshot.releaseNode(NodeId{1}, {40, 60});
  snapshot.releaseBus(0, 2, 7);
  expectDescribes(snapshot, floor, profile);
}

TEST(IncrementalMetricsEdits, ReleaseMergesCoalescedNeighbours) {
  // Occupancy committed before a record stays busy whatever is released
  // after it, even where the busy records coalesced; a release between two
  // free members merges all three into one C1 container.
  const FutureProfile profile = smallProfile();
  const PlatformState empty(smallArch(), 1200);
  IncrementalMetrics snapshot;
  snapshot.rebuild(empty, profile);
  snapshot.occupyNode(NodeId{0}, {0, 10});
  snapshot.occupyNode(NodeId{0}, {10, 20});
  snapshot.releaseNode(NodeId{0}, {10, 20});
  PlatformState first(smallArch(), 1200);
  first.occupyNode(NodeId{0}, {0, 10});
  expectDescribes(snapshot, first, profile);

  snapshot.occupyNode(NodeId{1}, {500, 520});  // splits one member in two
  snapshot.occupyNode(NodeId{1}, {520, 530});
  snapshot.releaseNode(NodeId{1}, {500, 520});
  snapshot.releaseNode(NodeId{1}, {520, 530});  // merges both sides back
  expectDescribes(snapshot, first, profile);
  SlackInfo slack;
  snapshot.slackInto(slack);
  EXPECT_EQ(slack.nodeFree[1], IntervalSet({{0, 1200}}));
  EXPECT_EQ(slack.nodeFree[0], IntervalSet({{10, 1200}}));
}

TEST(IncrementalMetricsEdits, GuardsThrowAndLeaveTheSnapshotUnchanged) {
  // Misuse throws std::logic_error, like PlatformState's occupy guards, and
  // leaves every maintained quantity as it was: the snapshot keeps
  // describing the same state, also after further valid edits.
  const FutureProfile profile = smallProfile();
  PlatformState state(smallArch(), 1200);
  state.occupyNode(NodeId{0}, {10, 20});
  state.occupyBus(0, 1, 4);
  IncrementalMetrics snapshot;
  snapshot.rebuild(state, profile);
  const std::int64_t rounds = state.roundCount();
  const Time slotLength = state.bus().slot(0).length;

  // Node occupies: not free, partly free, outside the horizon, empty.
  EXPECT_THROW(snapshot.occupyNode(NodeId{0}, {10, 20}), std::logic_error);
  EXPECT_THROW(snapshot.occupyNode(NodeId{0}, {5, 15}), std::logic_error);
  EXPECT_THROW(snapshot.occupyNode(NodeId{0}, {15, 25}), std::logic_error);
  EXPECT_THROW(snapshot.occupyNode(NodeId{0}, {-5, 5}), std::logic_error);
  EXPECT_THROW(snapshot.occupyNode(NodeId{1}, {1195, 1205}), std::logic_error);
  EXPECT_THROW(snapshot.occupyNode(NodeId{1}, {12, 12}), std::logic_error);
  // Node releases: not busy, partly busy, outside the horizon, empty.
  EXPECT_THROW(snapshot.releaseNode(NodeId{0}, {0, 10}), std::logic_error);
  EXPECT_THROW(snapshot.releaseNode(NodeId{0}, {15, 25}), std::logic_error);
  EXPECT_THROW(snapshot.releaseNode(NodeId{0}, {5, 15}), std::logic_error);
  EXPECT_THROW(snapshot.releaseNode(NodeId{1}, {10, 20}), std::logic_error);
  EXPECT_THROW(snapshot.releaseNode(NodeId{0}, {-5, 5}), std::logic_error);
  EXPECT_THROW(snapshot.releaseNode(NodeId{0}, {1195, 1205}), std::logic_error);
  EXPECT_THROW(snapshot.releaseNode(NodeId{0}, {12, 12}), std::logic_error);
  // Bus occupies: past the slot length, zero ticks, outside the horizon.
  EXPECT_THROW(snapshot.occupyBus(0, 1, slotLength - 3), std::logic_error);
  EXPECT_THROW(snapshot.occupyBus(0, 0, slotLength + 1), std::logic_error);
  EXPECT_THROW(snapshot.occupyBus(0, 0, 0), std::logic_error);
  EXPECT_THROW(snapshot.occupyBus(0, rounds, 1), std::logic_error);
  EXPECT_THROW(snapshot.occupyBus(0, -1, 1), std::logic_error);
  // Bus releases: more than held, nothing held, zero ticks, outside.
  EXPECT_THROW(snapshot.releaseBus(0, 1, 5), std::logic_error);
  EXPECT_THROW(snapshot.releaseBus(0, 0, 1), std::logic_error);
  EXPECT_THROW(snapshot.releaseBus(0, 1, 0), std::logic_error);
  EXPECT_THROW(snapshot.releaseBus(0, rounds, 1), std::logic_error);
  EXPECT_THROW(snapshot.releaseBus(0, -1, 1), std::logic_error);
  expectDescribes(snapshot, state, profile);

  // The boundaries themselves are fine.
  EXPECT_NO_THROW(snapshot.occupyNode(NodeId{0}, {20, 30}));  // touches
  EXPECT_NO_THROW(snapshot.occupyNode(NodeId{1}, {1190, 1200}));
  EXPECT_NO_THROW(snapshot.occupyBus(0, 1, slotLength - 4));  // exactly full
  EXPECT_NO_THROW(snapshot.releaseNode(NodeId{0}, {12, 18}));  // inside
  PlatformState want(smallArch(), 1200);
  want.occupyNode(NodeId{0}, {10, 12});
  want.occupyNode(NodeId{0}, {18, 30});
  want.occupyNode(NodeId{1}, {1190, 1200});
  want.occupyBus(0, 1, slotLength);
  expectDescribes(snapshot, want, profile);
  EXPECT_NO_THROW(snapshot.releaseBus(0, 1, slotLength));  // exactly empty
}

// ---- churn ----------------------------------------------------------------

/// The churn: the snapshot under test, the records committed on top of a
/// floor, and the records the last release took off (re-committable).
class Churn {
 public:
  explicit Churn(std::uint64_t seed) : floor_(smallArch(), 1200), rng_(seed) {
    for (std::size_t n = 0; n < floor_.nodeCount(); ++n) {
      // A floor no release names.
      const NodeId id{static_cast<std::int32_t>(n)};
      const Time offset = 40 * static_cast<Time>(n);
      floor_.occupyNode(id, {offset, offset + 50});
      floor_.occupyNode(id, {900, 960});
    }
    floor_.occupyBus(0, 0, 4);
    snapshot_.rebuild(floor_, profile_);
  }

  /// One random step, then the snapshot must describe the floor plus the
  /// surviving records.
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
      // Occupy, then release it again: identical occupancy.
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
    expectDescribes(snapshot_, reference(), profile_);
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

  /// The floor with every surviving record occupied onto it.
  [[nodiscard]] PlatformState reference() const {
    PlatformState st = floor_;
    for (const Record& r : records_) {
      if (r.node) {
        st.occupyNode(NodeId{static_cast<std::int32_t>(r.index)}, r.iv);
      } else {
        st.occupyBus(r.index, r.round, r.ticks);
      }
    }
    return st;
  }

  void occupyNode() {
    const PlatformState st = reference();
    const NodeId node{static_cast<std::int32_t>(rng_.index(st.nodeCount()))};
    const IntervalSet free = st.nodeFree(node);
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
    const PlatformState st = reference();
    const std::size_t slot = rng_.index(st.bus().slotCount());
    const std::int64_t round = rng_.uniformInt(0, st.roundCount() - 1);
    const Time room = st.slotFreeTicks(slot, round);
    if (room <= 0) return;
    commit({false, slot, Interval{}, round, rng_.uniformInt(1, room)});
    released_.clear();
  }

  /// Takes one to three random committed records off, in random order.
  void release() {
    released_.clear();
    const std::size_t gapsBefore = freeIntervalCount(reference());
    const std::size_t batch = static_cast<std::size_t>(rng_.uniformInt(1, 3));
    for (std::size_t b = 0; b < batch && !records_.empty(); ++b) {
      const std::size_t k = rng_.index(records_.size());
      releaseRecord(records_[k]);
      released_.push_back(records_[k]);
      records_[k] = records_.back();
      records_.pop_back();
    }
    if (freeIntervalCount(reference()) < gapsBefore) merges += 1;
  }

  /// Re-commits the records the last release took off, through the occupy
  /// edits.
  void recommitReleased() {
    if (released_.empty()) return;
    for (const Record& r : released_) commit(r);
    released_.clear();
    recommits += 1;
  }

  void commit(const Record& r) {
    if (r.node) {
      snapshot_.occupyNode(NodeId{static_cast<std::int32_t>(r.index)}, r.iv);
    } else {
      snapshot_.occupyBus(r.index, r.round, r.ticks);
    }
    records_.push_back(r);
  }

  void releaseRecord(const Record& r) {
    if (r.node) {
      snapshot_.releaseNode(NodeId{static_cast<std::int32_t>(r.index)}, r.iv);
    } else {
      snapshot_.releaseBus(r.index, r.round, r.ticks);
    }
  }

  const FutureProfile profile_ = smallProfile();
  PlatformState floor_;
  Rng rng_;
  IncrementalMetrics snapshot_;
  std::vector<Record> records_;
  std::vector<Record> released_;
};

TEST(IncrementalMetricsProperty, MatchesComputeMetricsUnderJournalChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Churn churn(seed);
    for (int i = 0; i < 400; ++i) {
      churn.step();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << i;
      }
    }
    EXPECT_GT(churn.splits, 20) << "seed " << seed;
    EXPECT_GT(churn.merges, 10) << "seed " << seed;
    EXPECT_GT(churn.recommits, 10) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ides
