#include "util/interval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace ides {
namespace {

TEST(Interval, LengthAndEmptiness) {
  EXPECT_EQ((Interval{0, 10}.length()), 10);
  EXPECT_EQ((Interval{5, 5}.length()), 0);
  EXPECT_TRUE((Interval{5, 5}.empty()));
  EXPECT_TRUE((Interval{7, 3}.empty()));
  EXPECT_FALSE((Interval{3, 7}.empty()));
}

TEST(Interval, ContainsIsHalfOpen) {
  const Interval iv{10, 20};
  EXPECT_FALSE(iv.contains(9));
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
}

TEST(Interval, OverlapsIsExclusiveAtBoundaries) {
  EXPECT_TRUE((Interval{0, 10}.overlaps({5, 15})));
  EXPECT_FALSE((Interval{0, 10}.overlaps({10, 20})));  // touching: no overlap
  EXPECT_FALSE((Interval{10, 20}.overlaps({0, 10})));
  EXPECT_TRUE((Interval{0, 100}.overlaps({40, 60})));  // containment
}

TEST(Interval, StreamFormat) {
  std::ostringstream os;
  os << Interval{3, 9};
  EXPECT_EQ(os.str(), "[3,9)");
}

TEST(IntervalSet, AddDisjointKeepsAll) {
  IntervalSet set;
  set.add({10, 20});
  set.add({30, 40});
  set.add({0, 5});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 5}));
  EXPECT_EQ(set.intervals()[1], (Interval{10, 20}));
  EXPECT_EQ(set.intervals()[2], (Interval{30, 40}));
  EXPECT_EQ(set.totalLength(), 25);
}

TEST(IntervalSet, AddMergesOverlapping) {
  IntervalSet set;
  set.add({10, 20});
  set.add({15, 30});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{10, 30}));
}

TEST(IntervalSet, AddCoalescesTouching) {
  IntervalSet set;
  set.add({10, 20});
  set.add({20, 30});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{10, 30}));
}

TEST(IntervalSet, AddBridgingMergesManyMembers) {
  IntervalSet set;
  set.add({0, 5});
  set.add({10, 15});
  set.add({20, 25});
  set.add({4, 21});  // bridges all three
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 25}));
}

TEST(IntervalSet, AddEmptyIsNoop) {
  IntervalSet set;
  set.add({10, 10});
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, AppendExtendsTheLastMemberItTouches) {
  IntervalSet set({{0, 10}});
  set.append({10, 15});  // touches: extends
  set.append({20, 20});  // empty: ignored
  set.append({20, 30});  // after a gap: a new member
  EXPECT_EQ(set, IntervalSet({{0, 15}, {20, 30}}));
  EXPECT_THROW(set.append({25, 40}), std::invalid_argument);
  EXPECT_THROW(set.append({0, 5}), std::invalid_argument);
  EXPECT_EQ(set, IntervalSet({{0, 15}, {20, 30}}));
  set.clear();
  EXPECT_TRUE(set.empty());
  set.append({0, 5});  // anything goes after a clear
  EXPECT_EQ(set, IntervalSet({{0, 5}}));
}

TEST(IntervalSet, CoversRequiresContainment) {
  IntervalSet set({{0, 10}, {10, 20}});  // coalesces to [0,20)
  EXPECT_TRUE(set.covers({0, 20}));
  EXPECT_TRUE(set.covers({5, 15}));
  EXPECT_FALSE(set.covers({15, 25}));
  EXPECT_TRUE(set.covers({7, 7}));  // empty interval trivially covered
}

TEST(IntervalSet, CoversAcrossGapIsFalse) {
  IntervalSet set({{0, 10}, {15, 25}});
  EXPECT_FALSE(set.covers({5, 20}));
}

TEST(IntervalSet, IntersectsDetectsAnyOverlap) {
  IntervalSet set({{10, 20}, {30, 40}});
  EXPECT_TRUE(set.intersects({15, 35}));
  EXPECT_TRUE(set.intersects({19, 21}));
  EXPECT_FALSE(set.intersects({20, 30}));  // exactly the gap
  EXPECT_FALSE(set.intersects({50, 60}));
  EXPECT_FALSE(set.intersects({5, 5}));
}

TEST(IntervalSet, ComplementWithinFullHorizon) {
  IntervalSet busy({{10, 20}, {30, 40}});
  const IntervalSet free = busy.complementWithin({0, 50});
  ASSERT_EQ(free.size(), 3u);
  EXPECT_EQ(free.intervals()[0], (Interval{0, 10}));
  EXPECT_EQ(free.intervals()[1], (Interval{20, 30}));
  EXPECT_EQ(free.intervals()[2], (Interval{40, 50}));
  EXPECT_EQ(free.totalLength() + busy.totalLength(), 50);
}

TEST(IntervalSet, ComplementOfEmptySetIsHorizon) {
  IntervalSet empty;
  const IntervalSet free = empty.complementWithin({5, 25});
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(free.intervals()[0], (Interval{5, 25}));
}

TEST(IntervalSet, ComplementWhenBusyCoversHorizon) {
  IntervalSet busy({{0, 100}});
  EXPECT_TRUE(busy.complementWithin({10, 90}).empty());
}

TEST(IntervalSet, ComplementClipsMembersOutsideHorizon) {
  IntervalSet busy({{0, 10}, {90, 120}});
  const IntervalSet free = busy.complementWithin({5, 100});
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(free.intervals()[0], (Interval{10, 90}));
}

TEST(IntervalSet, IntersectWithWindow) {
  IntervalSet set({{0, 10}, {20, 30}, {40, 50}});
  const IntervalSet clipped = set.intersectWith({5, 45});
  ASSERT_EQ(clipped.size(), 3u);
  EXPECT_EQ(clipped.intervals()[0], (Interval{5, 10}));
  EXPECT_EQ(clipped.intervals()[1], (Interval{20, 30}));
  EXPECT_EQ(clipped.intervals()[2], (Interval{40, 45}));
}

TEST(IntervalSet, LengthWithinMatchesIntersection) {
  IntervalSet set({{0, 10}, {20, 30}, {40, 50}});
  for (Time a = 0; a <= 50; a += 7) {
    for (Time b = a; b <= 55; b += 5) {
      EXPECT_EQ(set.lengthWithin({a, b}),
                set.intersectWith({a, b}).totalLength())
          << "window [" << a << "," << b << ")";
    }
  }
}

TEST(IntervalSet, LargestMember) {
  EXPECT_EQ(IntervalSet{}.largest(), 0);
  IntervalSet set({{0, 3}, {10, 25}, {30, 32}});
  EXPECT_EQ(set.largest(), 15);
}

TEST(IntervalSet, ConstructorNormalizesInput) {
  IntervalSet set({{20, 30}, {0, 10}, {8, 22}});
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 30}));
}

// Property: for random busy sets, complement-of-complement is the original,
// and busy/free partition the horizon exactly.
class IntervalSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSetProperty, ComplementRoundTripsAndPartitions) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  IntervalSet busy;
  const Time horizon = 1000;
  for (int i = 0; i < 40; ++i) {
    const Time a = static_cast<Time>(rng() % 1000);
    const Time b = a + 1 + static_cast<Time>(rng() % 60);
    busy.add({a, std::min(b, horizon)});
  }
  const IntervalSet free = busy.complementWithin({0, horizon});
  const IntervalSet busyAgain = free.complementWithin({0, horizon});
  const IntervalSet busyClipped = busy.intersectWith({0, horizon});
  EXPECT_EQ(busyAgain, busyClipped);
  EXPECT_EQ(busyClipped.totalLength() + free.totalLength(), horizon);
  for (const Interval& f : free.intervals()) {
    EXPECT_FALSE(busy.intersects(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty, ::testing::Range(0, 25));

// ---- in-place add and append against a per-tick reference ----------------
// add() coalesces into the first absorbed member and append() extends the
// last member it touches. These checks pin both against a boolean per-tick
// model after every step, and count the shapes the in-place paths tell
// apart so a generator drift cannot hide one.

/// Maximal runs of set ticks: the only valid IntervalSet for `ticks`.
std::vector<Interval> runsOf(const std::vector<bool>& ticks) {
  std::vector<Interval> runs;
  for (Time t = 0; t < static_cast<Time>(ticks.size()); ++t) {
    if (!ticks[static_cast<std::size_t>(t)]) continue;
    if (!runs.empty() && runs.back().end == t) {
      ++runs.back().end;
    } else {
      runs.push_back({t, t + 1});
    }
  }
  return runs;
}

/// Shape of add(iv) against the members before it.
std::string addShape(const std::vector<Interval>& members, Interval iv) {
  std::vector<Interval> touched;
  for (const Interval& m : members) {
    if (m.end >= iv.start && m.start <= iv.end) touched.push_back(m);
  }
  if (touched.empty()) return "add: isolated";
  if (touched.size() == 1) {
    if (touched[0].end == iv.start) return "add: touches left";
    if (touched[0].start == iv.end) return "add: touches right";
    return "add: overlaps one";
  }
  if (touched.size() == 2 && touched[0].end == iv.start &&
      touched[1].start == iv.end) {
    return "add: touches both sides";
  }
  return touched.size() >= 3 ? "add: bridges several" : "add: joins two";
}

/// Rebuilds `set` from `ticks` through clear() and append(), each run cut
/// in one or two pieces at a random tick, so appends that touch the last
/// member and appends after a gap both come up; counts them in `shapes`.
void rebuildByAppend(IntervalSet& set, const std::vector<bool>& ticks,
                     Rng& rng, std::map<std::string, int>& shapes) {
  set.clear();
  for (const Interval& run : runsOf(ticks)) {
    const Time cut = rng.uniformInt(run.start, run.end);
    ++shapes[set.empty() ? "append: first" : "append: after a gap"];
    set.append({run.start, cut});
    if (cut > run.start && cut < run.end) ++shapes["append: extends last"];
    set.append({cut, run.end});
  }
}

/// Random interval in [0, horizon). Most are drawn against a member: ending
/// on its left edge, starting on its right edge, inside it, running from
/// inside it to another member's end, or filling the gap after it, so exact
/// touches, gap fills, edge trims, splits and spans all come up.
Interval randomInterval(Rng& rng, const IntervalSet& set, Time horizon) {
  const std::vector<Interval>& members = set.intervals();
  Time a = rng.uniformInt(0, horizon - 1);
  Time b = a + rng.uniformInt(1, 24);
  if (!members.empty() && rng.chance(0.7)) {
    const std::size_t k = rng.index(members.size());
    const Interval& m = members[k];
    const auto inside = [&] { return rng.uniformInt(m.start, m.end); };
    const std::size_t shape = rng.index(5);
    if (shape == 0) {
      b = m.start;
      a = b - rng.uniformInt(1, 24);
    } else if (shape == 1) {
      a = m.end;
      b = a + rng.uniformInt(1, 24);
    } else if (shape == 2) {
      a = inside();
      b = inside();
    } else if (shape == 3) {
      a = inside();
      b = rng.pick(members).end;
    } else {
      a = m.end;
      b = k + 1 < members.size() ? members[k + 1].start : horizon;
    }
    if (a > b) std::swap(a, b);
  }
  a = std::clamp<Time>(a, 0, horizon - 1);
  b = std::clamp<Time>(b, a + 1, horizon);
  return {a, b};
}

TEST(IntervalSetInPlace, AddAndAppendMatchPerTickReference) {
  constexpr Time kHorizon = 300;
  std::map<std::string, int> shapes;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    IntervalSet set;
    std::vector<bool> ticks(kHorizon, false);
    for (int step = 0; step < 400; ++step) {
      const Interval iv = randomInterval(rng, set, kHorizon);
      // Lean towards adds so the set stays populated; the other steps
      // clear the range in the model and rebuild the set from it.
      const bool isAdd = rng.chance(0.55);
      if (isAdd) ++shapes[addShape(set.intervals(), iv)];
      if (isAdd) set.add(iv);
      for (Time t = iv.start; t < iv.end; ++t) {
        ticks[static_cast<std::size_t>(t)] = isAdd;
      }
      if (!isAdd) rebuildByAppend(set, ticks, rng, shapes);
      ASSERT_EQ(set.intervals(), runsOf(ticks))
          << "seed " << seed << ", step " << step << ", " << iv;
    }
  }
  EXPECT_GT(shapes["add: touches left"], 0);
  EXPECT_GT(shapes["add: touches right"], 0);
  EXPECT_GT(shapes["add: touches both sides"], 0);
  EXPECT_GT(shapes["add: bridges several"], 0);
  EXPECT_GT(shapes["append: first"], 0);
  EXPECT_GT(shapes["append: after a gap"], 0);
  EXPECT_GT(shapes["append: extends last"], 0);
}

// ---- fused first-fit insert against scan + add ------------------------------
// insertFirstFit inserts where its earliest-fit scan stopped. Every step
// compares it with a per-tick earliest-fit scan followed by add() on a copy,
// and counts where the placed interval landed relative to its neighbours.

/// Earliest s >= after with [s, s + duration) clear in `ticks` and
/// s + duration <= limit, by walking ticks; kNoTime if none.
Time perTickEarliestFit(const std::vector<bool>& ticks, Time after,
                        Time duration, Time limit) {
  Time run = 0;
  for (Time t = after; t < limit; ++t) {
    run = ticks[static_cast<std::size_t>(t)] ? 0 : run + 1;
    if (run == duration) return t + 1 - duration;
  }
  return kNoTime;
}

TEST(IntervalSetFirstFit, InsertMatchesScanThenAddOnACopy) {
  constexpr Time kHorizon = 400;
  std::map<std::string, int> shapes;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    IntervalSet set;
    std::vector<bool> ticks(kHorizon, false);
    for (int step = 0; step < 300; ++step) {
      if (!set.empty() && rng.chance(0.3)) {
        // Free a range now and then so the set keeps gaps of every size.
        const Interval iv = randomInterval(rng, set, kHorizon);
        for (Time t = iv.start; t < iv.end; ++t) {
          ticks[static_cast<std::size_t>(t)] = false;
        }
        set = IntervalSet(runsOf(ticks));
        continue;
      }
      const Time after = rng.uniformInt(0, kHorizon - 1);
      const Time duration = rng.uniformInt(1, 30);
      const Time limit =
          rng.chance(0.25) ? rng.uniformInt(after, kHorizon) : kHorizon;
      const Time expected = perTickEarliestFit(ticks, after, duration, limit);
      IntervalSet reference = set;
      std::string shape = "no fit before limit";
      if (expected != kNoTime) {
        const Time end = expected + duration;
        const bool left =
            expected > 0 && ticks[static_cast<std::size_t>(expected - 1)];
        const bool right =
            end < kHorizon && ticks[static_cast<std::size_t>(end)];
        shape = left && right ? "touches both"
                : left        ? "touches left"
                : right       ? "touches right"
                              : "touches neither";
        reference.add({expected, end});
        for (Time t = expected; t < end; ++t) {
          ticks[static_cast<std::size_t>(t)] = true;
        }
      }
      ++shapes[shape];
      ASSERT_EQ(set.earliestFit(after, duration, limit), expected)
          << "seed " << seed << ", step " << step;
      ASSERT_EQ(set.insertFirstFit(after, duration, limit), expected)
          << "seed " << seed << ", step " << step;
      ASSERT_EQ(set, reference) << "seed " << seed << ", step " << step;
      ASSERT_EQ(set.intervals(), runsOf(ticks))
          << "seed " << seed << ", step " << step;
    }
  }
  EXPECT_GT(shapes["touches left"], 0);
  EXPECT_GT(shapes["touches right"], 0);
  EXPECT_GT(shapes["touches both"], 0);
  EXPECT_GT(shapes["touches neither"], 0);
  EXPECT_GT(shapes["no fit before limit"], 0);
}

TEST(IntervalSetFirstFit, RejectsNonPositiveDuration) {
  IntervalSet set({{10, 20}});
  EXPECT_THROW((void)set.earliestFit(0, 0, 100), std::invalid_argument);
  EXPECT_THROW((void)set.insertFirstFit(0, -1, 100), std::invalid_argument);
  EXPECT_EQ(set, IntervalSet({{10, 20}}));
}

}  // namespace
}  // namespace ides
