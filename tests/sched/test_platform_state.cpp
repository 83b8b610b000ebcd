#include "sched/platform_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "test_helpers.h"
#include "util/rng.h"

namespace ides {
namespace {

using ides::testing::twoNodeArch;

PlatformState makeState(Time horizon = 200) {
  static const Architecture arch = twoNodeArch();  // round 20
  return PlatformState(arch, horizon);
}

TEST(PlatformState, RejectsBadHorizon) {
  const Architecture arch = twoNodeArch();
  EXPECT_THROW(PlatformState(arch, 0), std::invalid_argument);
  EXPECT_THROW(PlatformState(arch, 30), std::invalid_argument);  // not k*20
  EXPECT_NO_THROW(PlatformState(arch, 40));
}

TEST(PlatformState, EarliestFitOnEmptyNode) {
  PlatformState st = makeState();
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 50), 0);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 13, 50), 13);
  EXPECT_EQ(st.earliestFit(NodeId{0}, -5, 50), 0);  // clamped
}

TEST(PlatformState, EarliestFitSkipsBusyAndFindsGaps) {
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {10, 40});
  st.occupyNode(NodeId{0}, {60, 100});
  // Gap [0,10) fits 10 but not 11.
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 10), 0);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 11), 40);
  // Gap [40,60) fits 20.
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 20), 40);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 21), 100);
  // After constraint pushes past a gap start.
  EXPECT_EQ(st.earliestFit(NodeId{0}, 45, 10), 45);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 55, 10), 100);
}

TEST(PlatformState, EarliestFitRespectsHorizon) {
  PlatformState st = makeState(100);
  st.occupyNode(NodeId{0}, {0, 95});
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 5), 95);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 6), kNoTime);
}

TEST(PlatformState, EarliestFitIsPerNode) {
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {0, 200});
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 10), kNoTime);
  EXPECT_EQ(st.earliestFit(NodeId{1}, 0, 10), 0);
}

TEST(PlatformState, OccupyNodeRejectsDoubleBookingAndOutOfRange) {
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {10, 20});
  EXPECT_THROW(st.occupyNode(NodeId{0}, {15, 25}), std::logic_error);
  EXPECT_THROW(st.occupyNode(NodeId{0}, {-5, 5}), std::logic_error);
  EXPECT_THROW(st.occupyNode(NodeId{0}, {190, 210}), std::logic_error);
  EXPECT_THROW(st.occupyNode(NodeId{0}, {30, 30}), std::logic_error);
  // Adjacent is fine.
  EXPECT_NO_THROW(st.occupyNode(NodeId{0}, {20, 30}));
}

TEST(PlatformState, NodeFreeComplementsBusy) {
  PlatformState st = makeState(100);
  st.occupyNode(NodeId{0}, {10, 30});
  const IntervalSet free = st.nodeFree(NodeId{0});
  ASSERT_EQ(free.size(), 2u);
  EXPECT_EQ(free.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(free.intervals()[1], (Interval{30, 100}));
}

TEST(PlatformState, FindBusSlotBasics) {
  // Round 20: slot0 = [0,10) owned by N0, slot1 = [10,20) owned by N1.
  PlatformState st = makeState(100);
  const auto p = st.findBusSlot(0, 0, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->round, 0);
  EXPECT_EQ(p->start, 0);
  EXPECT_EQ(p->end, 4);

  // Ready mid-slot: must wait for the next occurrence of slot 0.
  const auto p2 = st.findBusSlot(0, 5, 4);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->round, 1);
  EXPECT_EQ(p2->start, 20);

  // Slot 1 starts at offset 10.
  const auto p3 = st.findBusSlot(1, 10, 4);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->round, 0);
  EXPECT_EQ(p3->start, 10);
}

TEST(PlatformState, FindBusSlotPacksBackToBack) {
  PlatformState st = makeState(100);
  auto p1 = st.findBusSlot(0, 0, 4);
  st.occupyBus(0, p1->round, 4);
  const auto p2 = st.findBusSlot(0, 0, 4);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->round, 0);
  EXPECT_EQ(p2->start, 4);
  EXPECT_EQ(p2->end, 8);
}

TEST(PlatformState, FindBusSlotOverflowsToNextRound) {
  PlatformState st = makeState(100);
  st.occupyBus(0, 0, 8);  // 8 of 10 ticks used
  const auto p = st.findBusSlot(0, 0, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->round, 1);
  EXPECT_EQ(p->start, 20);
}

TEST(PlatformState, FindBusSlotRespectsMinRound) {
  PlatformState st = makeState(100);
  const auto p = st.findBusSlot(0, 0, 4, /*minRound=*/3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->round, 3);
  EXPECT_EQ(p->start, 60);
}

TEST(PlatformState, FindBusSlotFailsBeyondHorizonOrOversized) {
  PlatformState st = makeState(40);  // 2 rounds
  st.occupyBus(0, 0, 10);
  st.occupyBus(0, 1, 10);
  EXPECT_FALSE(st.findBusSlot(0, 0, 4).has_value());
  // A transmission longer than the slot can never fit.
  PlatformState st2 = makeState(40);
  EXPECT_FALSE(st2.findBusSlot(0, 0, 11).has_value());
}

TEST(PlatformState, OccupyBusValidation) {
  PlatformState st = makeState(40);
  EXPECT_THROW(st.occupyBus(0, 2, 4), std::logic_error);   // round beyond H
  EXPECT_THROW(st.occupyBus(0, -1, 4), std::logic_error);
  st.occupyBus(0, 0, 8);
  EXPECT_THROW(st.occupyBus(0, 0, 3), std::logic_error);   // overflow
  EXPECT_NO_THROW(st.occupyBus(0, 0, 2));                  // exactly full
}

TEST(PlatformState, SlackTotals) {
  PlatformState st = makeState(40);  // 2 nodes x 40 ticks; 2 rounds
  EXPECT_EQ(st.totalNodeSlack(), 80);
  EXPECT_EQ(st.totalBusSlackTicks(), 40);  // 2 slots x 10 ticks x 2 rounds
  st.occupyNode(NodeId{0}, {0, 15});
  st.occupyBus(1, 0, 7);
  EXPECT_EQ(st.totalNodeSlack(), 65);
  EXPECT_EQ(st.totalBusSlackTicks(), 33);
  EXPECT_EQ(st.slotUsedTicks(1, 0), 7);
  EXPECT_EQ(st.slotFreeTicks(1, 0), 3);
}

TEST(PlatformState, CopyIsIndependent) {
  PlatformState a = makeState(40);
  a.occupyNode(NodeId{0}, {0, 10});
  PlatformState b = a;
  b.occupyNode(NodeId{0}, {10, 20});
  b.occupyBus(0, 0, 5);
  EXPECT_EQ(a.nodeBusy(NodeId{0}).totalLength(), 10);
  EXPECT_EQ(b.nodeBusy(NodeId{0}).totalLength(), 20);
  EXPECT_EQ(a.slotUsedTicks(0, 0), 0);
  EXPECT_EQ(b.slotUsedTicks(0, 0), 5);
}

// ---- occupyEarliest: the scheduling loop's fused commit -----------------

TEST(PlatformStateJournal, OccupyEarliestCommitsAndJournalsLikeOccupyNode) {
  // Twin states: one commits through earliestFit + occupyNode, the other
  // through occupyEarliest. Same starts and busy sets.
  PlatformState fused = makeState(400);
  fused.occupyNode(NodeId{0}, {30, 60});
  PlatformState split = fused;
  Rng rng(17);
  int misses = 0;
  for (int i = 0; i < 200; ++i) {
    const NodeId node{static_cast<std::int32_t>(rng.index(2))};
    const Time after = rng.uniformInt(-10, 399);
    const Time duration = rng.uniformInt(1, 40);
    const Time start = split.earliestFit(node, after, duration);
    if (start == kNoTime) {
      ++misses;
    } else {
      split.occupyNode(node, {start, start + duration});
    }
    ASSERT_EQ(fused.occupyEarliest(node, after, duration), start) << i;
  }
  EXPECT_GT(misses, 0);
  for (std::int32_t n = 0; n < 2; ++n) {
    EXPECT_EQ(fused.nodeBusy(NodeId{n}), split.nodeBusy(NodeId{n}));
  }
  EXPECT_THROW((void)fused.occupyEarliest(NodeId{0}, 0, 0),
               std::invalid_argument);
}

// ---- first-free-round cursor ---------------------------------------------
// findBusSlot keeps a per-slot cursor past the fully-booked round prefix.
// These tests pin the invariant: placements are identical to a plain linear
// scan, across saturation and partial fills.

/// Reference: what the pre-cursor linear scan would return.
std::optional<PlatformState::BusPlacement> linearFindBusSlot(
    const PlatformState& st, std::size_t slot, Time ready, Time txTicks,
    std::int64_t minRound = 0) {
  if (txTicks > st.bus().slot(slot).length) return std::nullopt;
  if (ready < 0) ready = 0;
  std::int64_t round =
      std::max(minRound, st.bus().firstRoundAtOrAfter(slot, ready));
  for (; round < st.roundCount(); ++round) {
    if (st.slotUsedTicks(slot, round) + txTicks >
        st.bus().slot(slot).length) {
      continue;
    }
    const Time start =
        st.bus().slotStart(round, slot) + st.slotUsedTicks(slot, round);
    return PlatformState::BusPlacement{round, start, start + txTicks};
  }
  return std::nullopt;
}

TEST(PlatformStateCursor, SkipsSaturatedPrefix) {
  PlatformState st = makeState(400);  // 20 rounds, slot length 10
  for (std::int64_t r = 0; r < 12; ++r) st.occupyBus(0, r, 10);
  const auto got = st.findBusSlot(0, 0, 4);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->round, 12);
  EXPECT_EQ(got->start, st.bus().slotStart(12, 0));
  // A partially-used round ahead of the cursor still serves smaller fits.
  st.occupyBus(0, 12, 7);
  EXPECT_EQ(st.findBusSlot(0, 0, 3)->round, 12);
  EXPECT_EQ(st.findBusSlot(0, 0, 4)->round, 13);
}

TEST(PlatformStateCursor, MatchesLinearScanUnderRandomChurn) {
  PlatformState st = makeState(800);  // 40 rounds, 2 slots
  Rng rng(99);
  for (int step = 0; step < 400; ++step) {
    const std::size_t slot = rng.index(st.bus().slotCount());
    const Time ready = rng.uniformInt(0, st.horizon() - 1);
    const Time tx = rng.uniformInt(1, 10);
    const auto got = st.findBusSlot(slot, ready, tx);
    const auto want = linearFindBusSlot(st, slot, ready, tx);
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (got.has_value()) {
      EXPECT_EQ(got->round, want->round) << "step " << step;
      EXPECT_EQ(got->start, want->start) << "step " << step;
    }
    // Churn: mostly occupy through the found placement, sometimes part
    // of a random round's room, out of scan order.
    if (rng.chance(0.15)) {
      const std::int64_t round = rng.uniformInt(0, st.roundCount() - 1);
      const Time room = st.slotFreeTicks(slot, round);
      if (room > 0) st.occupyBus(slot, round, rng.uniformInt(1, room));
    } else if (got.has_value()) {
      st.occupyBus(slot, got->round, tx);
    }
  }
}

}  // namespace
}  // namespace ides
