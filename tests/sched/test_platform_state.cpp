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

// ---- releases: the exact inverses of the occupies -----------------------
// EvalContext moves its state from one schedule to the next record by
// record. These tests carry the names of the undo journal they once drove;
// the properties are the same: a release restores the occupancy exactly,
// reopens gaps and rounds, and refuses what was never committed.

TEST(PlatformStateJournal, RollbackRestoresNodeAndBusOccupancy) {
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {0, 15});  // a floor no release names
  st.occupyNode(NodeId{0}, {15, 30});  // coalesces with [0,15)
  st.occupyNode(NodeId{1}, {40, 60});
  st.occupyBus(0, 2, 7);
  st.occupyNode(NodeId{0}, {100, 120});
  st.occupyBus(0, 2, 3);  // same occurrence, packs behind the 7

  st.releaseBus(0, 2, 3);
  st.releaseNode(NodeId{0}, {100, 120});
  EXPECT_EQ(st.nodeBusy(NodeId{0}).intervals(),
            (std::vector<Interval>{{0, 30}}));
  EXPECT_EQ(st.slotUsedTicks(0, 2), 7);

  st.releaseNode(NodeId{0}, {15, 30});
  st.releaseNode(NodeId{1}, {40, 60});
  st.releaseBus(0, 2, 7);
  EXPECT_EQ(st.nodeBusy(NodeId{0}).intervals(),
            (std::vector<Interval>{{0, 15}}));
  EXPECT_EQ(st.nodeBusy(NodeId{1}).totalLength(), 0);
  EXPECT_EQ(st.slotUsedTicks(0, 2), 0);
}

TEST(PlatformStateJournal, RollbackReopensGapsForEarliestFit) {
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {0, 50});
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 10), 50);
  st.releaseNode(NodeId{0}, {0, 50});
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 10), 0);
  // A release inside a coalesced run reopens just its own gap.
  st.occupyNode(NodeId{0}, {0, 20});
  st.occupyNode(NodeId{0}, {20, 30});
  st.occupyNode(NodeId{0}, {30, 50});
  st.releaseNode(NodeId{0}, {20, 30});
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 10), 20);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 11), 50);
}

TEST(PlatformStateJournal, OccupyEarliestCommitsAndJournalsLikeOccupyNode) {
  // Twin states: one commits through earliestFit + occupyNode, the other
  // through occupyEarliest. Same starts and busy sets; releasing every
  // committed record, in any order, brings the fused one back to its floor.
  PlatformState fused = makeState(400);
  fused.occupyNode(NodeId{0}, {30, 60});
  PlatformState split = fused;
  Rng rng(17);
  int misses = 0;
  std::vector<std::pair<NodeId, Interval>> records;
  for (int i = 0; i < 200; ++i) {
    const NodeId node{static_cast<std::int32_t>(rng.index(2))};
    const Time after = rng.uniformInt(-10, 399);
    const Time duration = rng.uniformInt(1, 40);
    const Time start = split.earliestFit(node, after, duration);
    if (start == kNoTime) {
      ++misses;
    } else {
      split.occupyNode(node, {start, start + duration});
      records.emplace_back(node, Interval{start, start + duration});
    }
    ASSERT_EQ(fused.occupyEarliest(node, after, duration), start) << i;
  }
  EXPECT_GT(misses, 0);
  for (std::int32_t n = 0; n < 2; ++n) {
    EXPECT_EQ(fused.nodeBusy(NodeId{n}), split.nodeBusy(NodeId{n}));
  }
  for (std::size_t i = records.size(); i > 0; --i) {
    const std::size_t k = rng.index(i);  // a random survivor each time
    std::swap(records[k], records[i - 1]);
    fused.releaseNode(records[i - 1].first, records[i - 1].second);
  }
  EXPECT_EQ(fused.nodeBusy(NodeId{0}), IntervalSet({{30, 60}}));
  EXPECT_TRUE(fused.nodeBusy(NodeId{1}).empty());
  EXPECT_THROW((void)fused.occupyEarliest(NodeId{0}, 0, 0),
               std::invalid_argument);
}

TEST(PlatformStateJournal, RollbackGuards) {
  // Misuse throws std::logic_error, like the occupy guards, and leaves the
  // state as it was.
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {10, 20});
  st.occupyBus(0, 1, 4);
  const PlatformState before = st;
  EXPECT_THROW(st.releaseNode(NodeId{0}, {0, 10}), std::logic_error);
  EXPECT_THROW(st.releaseNode(NodeId{0}, {15, 25}), std::logic_error);
  EXPECT_THROW(st.releaseNode(NodeId{1}, {10, 20}), std::logic_error);
  EXPECT_THROW(st.releaseNode(NodeId{0}, {-5, 5}), std::logic_error);
  EXPECT_THROW(st.releaseNode(NodeId{0}, {195, 205}), std::logic_error);
  EXPECT_THROW(st.releaseNode(NodeId{0}, {12, 12}), std::logic_error);
  EXPECT_THROW(st.releaseBus(0, 1, 5), std::logic_error);  // holds only 4
  EXPECT_THROW(st.releaseBus(0, 0, 1), std::logic_error);  // holds nothing
  EXPECT_THROW(st.releaseBus(0, 0, 0), std::logic_error);
  EXPECT_THROW(st.releaseBus(0, st.roundCount(), 1), std::logic_error);
  EXPECT_THROW(st.releaseBus(0, -1, 1), std::logic_error);
  EXPECT_EQ(st.nodeBusy(NodeId{0}), before.nodeBusy(NodeId{0}));
  EXPECT_EQ(st.nodeBusy(NodeId{1}), before.nodeBusy(NodeId{1}));
  EXPECT_EQ(st.slotUsedTicks(0, 1), 4);
  EXPECT_NO_THROW(st.releaseNode(NodeId{0}, {12, 18}));  // inside a record
  EXPECT_NO_THROW(st.releaseBus(0, 1, 4));               // exactly empty
}

TEST(PlatformStateJournal, EnablingClearsHistory) {
  // The state keeps no history: occupancy committed before a record stays
  // busy whatever is released after it, even where the interval set
  // coalesced the two.
  PlatformState st = makeState();
  st.occupyNode(NodeId{0}, {0, 10});
  st.occupyNode(NodeId{0}, {10, 20});
  EXPECT_EQ(st.nodeBusy(NodeId{0}).intervals(),
            (std::vector<Interval>{{0, 20}}));
  st.releaseNode(NodeId{0}, {10, 20});
  EXPECT_EQ(st.nodeBusy(NodeId{0}).totalLength(), 10);
  EXPECT_EQ(st.earliestFit(NodeId{0}, 0, 5), 10);
}

// ---- first-free-round cursor ---------------------------------------------
// findBusSlot keeps a per-slot cursor past the fully-booked round prefix.
// These tests pin the invariant: placements are identical to a plain linear
// scan, across saturation, partial fills, and releases.

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

TEST(PlatformStateCursor, RollbackReopensRounds) {
  PlatformState st = makeState(400);
  for (std::int64_t r = 0; r < 10; ++r) st.occupyBus(0, r, 10);
  EXPECT_EQ(st.findBusSlot(0, 0, 1)->round, 10);
  for (std::int64_t r = 9; r >= 5; --r) st.releaseBus(0, r, 10);
  // Rounds 5..9 reopened; the cursor must not skip them.
  EXPECT_EQ(st.findBusSlot(0, 0, 1)->round, 5);
  EXPECT_EQ(st.findBusSlot(0, 0, 10)->round, 5);
  // A partial release below the cursor reopens that round alone.
  st.releaseBus(0, 2, 3);
  EXPECT_EQ(st.findBusSlot(0, 0, 3)->round, 2);
  EXPECT_EQ(st.findBusSlot(0, 0, 4)->round, 5);
}

TEST(PlatformStateCursor, MatchesLinearScanUnderRandomChurn) {
  PlatformState st = makeState(800);  // 40 rounds, 2 slots
  Rng rng(99);
  struct Use {
    std::size_t slot;
    std::int64_t round;
    Time ticks;
  };
  std::vector<Use> committed;
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
    // Churn: mostly occupy (through the found placement), sometimes
    // release a random committed transmission.
    if (!committed.empty() && rng.chance(0.15)) {
      const std::size_t k = rng.index(committed.size());
      st.releaseBus(committed[k].slot, committed[k].round,
                    committed[k].ticks);
      committed[k] = committed.back();
      committed.pop_back();
    } else if (got.has_value()) {
      st.occupyBus(slot, got->round, tx);
      committed.push_back({slot, got->round, tx});
    }
  }
}

// ---- exact-inverse releases under node + bus churn -----------------------
// Whatever the interleaving of coalescing node occupies, bus occupies and
// releases of random committed records, the result must equal the floor
// with the surviving records re-occupied onto it.

/// A free interval on `node` that touches a busy neighbour when possible
/// (so the occupy coalesces), else a random free fit; nullopt if none.
std::optional<Interval> pickNodeInterval(Rng& rng, const PlatformState& st,
                                         NodeId node) {
  const std::vector<Interval>& busy = st.nodeBusy(node).intervals();
  if (!busy.empty() && rng.chance(0.75)) {
    const std::size_t k = rng.index(busy.size());
    if (rng.chance(0.5)) {
      // Grow member k to the right, up to (and sometimes onto) the next.
      const Time gapEnd =
          k + 1 < busy.size() ? busy[k + 1].start : st.horizon();
      const Time gap = gapEnd - busy[k].end;
      if (gap > 0) {
        const Time len = rng.chance(0.3) ? gap : rng.uniformInt(1, gap);
        return Interval{busy[k].end, busy[k].end + len};
      }
    } else {
      // Grow member k to the left, down to (and sometimes onto) the last.
      const Time gapStart = k > 0 ? busy[k - 1].end : 0;
      const Time gap = busy[k].start - gapStart;
      if (gap > 0) {
        const Time len = rng.chance(0.3) ? gap : rng.uniformInt(1, gap);
        return Interval{busy[k].start - len, busy[k].start};
      }
    }
  }
  const Time duration = rng.uniformInt(1, 12);
  const Time start =
      st.earliestFit(node, rng.uniformInt(0, st.horizon() - 1), duration);
  if (start == kNoTime) return std::nullopt;
  return Interval{start, start + duration};
}

TEST(PlatformStateJournal, RollbackMatchesReoccupiedSurvivorsUnderChurn) {
  PlatformState st = makeState(800);  // 40 rounds, 2 nodes, 2 slots
  // A non-empty floor that releases must leave alone.
  st.occupyNode(NodeId{0}, {0, 40});
  st.occupyNode(NodeId{1}, {100, 130});
  st.occupyBus(0, 0, 10);
  st.occupyBus(1, 3, 4);
  const PlatformState floor = st;

  struct Record {
    bool node = false;
    std::size_t index = 0;  ///< node or slot
    Interval iv;
    std::int64_t round = 0;
    Time ticks = 0;
  };
  std::vector<Record> records;
  Rng rng(2024);
  int releases = 0;
  int coalescing = 0;
  for (int step = 0; step < 3000; ++step) {
    const double op = rng.uniform01();
    if (op < 0.55) {
      const NodeId node{static_cast<std::int32_t>(rng.index(2))};
      const auto iv = pickNodeInterval(rng, st, node);
      if (!iv.has_value()) continue;
      const std::size_t before = st.nodeBusy(node).size();
      st.occupyNode(node, *iv);
      records.push_back({true, static_cast<std::size_t>(node.index()), *iv});
      if (st.nodeBusy(node).size() <= before) ++coalescing;
      continue;
    }
    if (op < 0.85) {
      // Half the messages are ready at 0, so they fill rounds from the
      // front and move the first-free-round cursor that releases lower.
      const std::size_t slot = rng.index(st.bus().slotCount());
      const Time tx = rng.uniformInt(1, 10);
      const Time ready =
          rng.chance(0.5) ? 0 : rng.uniformInt(0, st.horizon() - 1);
      const auto hit = st.findBusSlot(slot, ready, tx);
      if (hit.has_value()) {
        st.occupyBus(slot, hit->round, tx);
        records.push_back({false, slot, Interval{}, hit->round, tx});
      }
      continue;
    }
    // Release a random batch of committed records, in random order.
    const std::size_t batch = records.empty() ? 0 : rng.index(4) + 1;
    for (std::size_t b = 0; b < batch && !records.empty(); ++b) {
      const std::size_t k = rng.index(records.size());
      const Record& e = records[k];
      if (e.node) {
        st.releaseNode(NodeId{static_cast<std::int32_t>(e.index)}, e.iv);
      } else {
        st.releaseBus(e.index, e.round, e.ticks);
      }
      records[k] = records.back();
      records.pop_back();
    }
    ++releases;

    PlatformState ref = floor;
    for (const Record& e : records) {
      if (e.node) {
        ref.occupyNode(NodeId{static_cast<std::int32_t>(e.index)}, e.iv);
      } else {
        ref.occupyBus(e.index, e.round, e.ticks);
      }
    }
    for (std::int32_t n = 0; n < 2; ++n) {
      ASSERT_EQ(st.nodeBusy(NodeId{n}), ref.nodeBusy(NodeId{n}))
          << "step " << step << ", node " << n;
    }
    for (std::size_t slot = 0; slot < st.bus().slotCount(); ++slot) {
      for (std::int64_t r = 0; r < st.roundCount(); ++r) {
        ASSERT_EQ(st.slotUsedTicks(slot, r), ref.slotUsedTicks(slot, r))
            << "step " << step << ", slot " << slot << ", round " << r;
      }
      for (Time ready = 0; ready < st.horizon(); ready += 170) {
        for (Time tx = 1; tx <= 10; tx += 3) {
          const auto got = st.findBusSlot(slot, ready, tx);
          const auto want = ref.findBusSlot(slot, ready, tx);
          ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
          if (got.has_value()) {
            EXPECT_EQ(got->round, want->round) << "step " << step;
            EXPECT_EQ(got->start, want->start) << "step " << step;
          }
        }
      }
    }
  }
  // The churn must exercise what it claims to.
  EXPECT_GT(releases, 100);
  EXPECT_GT(coalescing, 500);
}

}  // namespace
}  // namespace ides
