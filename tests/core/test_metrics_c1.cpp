// C1 (slack size) metric tests, including the paper's slide-12
// illustration: identical total slack scores C1 = 0% when contiguous and
// 75% when fragmented.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "core/metrics.h"
#include "util/rng.h"

namespace ides {
namespace {

DiscreteDistribution singleValue(std::int64_t v) {
  return DiscreteDistribution({{v, 1.0}});
}

FutureProfile profileWith(DiscreteDistribution wcet, DiscreteDistribution msg,
                          Time tmin = 50) {
  FutureProfile p;
  p.tmin = tmin;
  p.tneed = 1;  // irrelevant for C1 tests
  p.bneedBytes = 1;
  p.wcetDistribution = std::move(wcet);
  p.messageSizeDistribution = std::move(msg);
  return p;
}

SlackInfo slackWithNodeGaps(std::vector<std::vector<Interval>> gaps,
                            Time horizon = 1000) {
  SlackInfo s;
  s.horizon = horizon;
  s.busBytesPerTick = 1;
  for (auto& node : gaps) {
    s.nodeFree.emplace_back(std::move(node));
  }
  return s;
}

TEST(BestFit, EverythingFitsInOneBigContainer) {
  EXPECT_EQ(bestFitUnpacked({50, 30, 20}, {100}), 0);
}

TEST(BestFit, UnpackedWhenNoContainerLargeEnough) {
  EXPECT_EQ(bestFitUnpacked({50}, {40, 49}), 50);
}

TEST(BestFit, PrefersTightestContainer) {
  // Item 30 goes into the 30-container (best fit), leaving 100 for item 90.
  EXPECT_EQ(bestFitUnpacked({30, 90}, {100, 30}), 0);
}

TEST(BestFit, ReusesResidualCapacity) {
  EXPECT_EQ(bestFitUnpacked({60, 40}, {100}), 0);
  EXPECT_EQ(bestFitUnpacked({60, 41}, {100}), 41);
}

TEST(BestFit, EmptyInputs) {
  EXPECT_EQ(bestFitUnpacked({}, {10, 20}), 0);
  EXPECT_EQ(bestFitUnpacked({5, 5}, {}), 10);
}

TEST(BestFit, RunEndingInsideAContainerKeepsItsLeftover) {
  // Two 30s end inside the 100; its 40 leftover takes two 20s, not three.
  EXPECT_EQ(bestFitUnpacked({30, 30, 20, 20}, {100}), 0);
  EXPECT_EQ(bestFitUnpacked({30, 30, 20, 20, 20}, {100}), 20);
  // Bus-shaped: four 30s use up one 100 (leaving 10) and end inside the
  // next (leaving 70); seven 25s fill the 70 down to 20, then the last 100,
  // and the seventh fits nowhere.
  std::vector<std::int64_t> items(4, 30);
  items.insert(items.end(), 7, 25);
  EXPECT_EQ(bestFitUnpacked(items, {100, 100, 100}), 25);
}

TEST(BestFit, NonPositiveCapacitiesHoldNothing) {
  EXPECT_EQ(bestFitUnpacked({5, 5}, {0, -10, 5}), 5);
  EXPECT_EQ(bestFitUnpacked({1}, {0, 0, -1}), 1);
}

/// Reference: place the items one by one into the smallest container that
/// still takes them, over a per-item std::multiset. Also counts the runs
/// of equal items that end part-way through a container (one that could
/// still take another item of the run).
struct ReferenceFit {
  std::int64_t unpacked = 0;
  int partialRuns = 0;
};

ReferenceFit referenceBestFit(const std::vector<std::int64_t>& itemsDesc,
                              const std::vector<std::int64_t>& containers) {
  std::multiset<std::int64_t> open(containers.begin(), containers.end());
  ReferenceFit out;
  for (std::size_t i = 0; i < itemsDesc.size(); ++i) {
    const std::int64_t item = itemsDesc[i];
    std::int64_t rest = -1;
    const auto it = open.lower_bound(item);
    if (it == open.end()) {
      out.unpacked += item;
    } else {
      rest = *it - item;
      open.erase(it);
      open.insert(rest);
    }
    const bool runEnds = i + 1 == itemsDesc.size() || itemsDesc[i + 1] != item;
    if (runEnds && rest >= item) out.partialRuns += 1;
  }
  return out;
}

TEST(BestFit, MatchesPerItemMultisetOnRandomCases) {
  // Five shapes, 2500 seeded cases each: bus-shaped (a few capacities,
  // many copies), spread capacities with zeros and negatives mixed in, an
  // item larger than every container, few large containers that the runs
  // end part-way through, and a few containers spread over a 16000-tick
  // horizon, so the walk between capacities crosses many bitmap words.
  Rng rng(20240611);
  int busShaped = 0;
  int nonPositive = 0;
  int biggerItem = 0;
  int partialRun = 0;
  int wideSpread = 0;
  for (int c = 0; c < 12500; ++c) {
    const int shape = c % 5;
    std::vector<std::int64_t> containers;
    if (shape == 0) {
      const std::int64_t copies = rng.uniformInt(1, 96);
      for (std::int64_t d = rng.uniformInt(1, 8); d > 0; --d) {
        const std::int64_t size = rng.uniformInt(1, 64);
        containers.insert(containers.end(), copies, size);
      }
    } else if (shape == 1) {
      for (std::int64_t i = rng.uniformInt(0, 120); i > 0; --i) {
        containers.push_back(rng.uniformInt(-20, 300));
      }
    } else if (shape == 2) {
      for (std::int64_t i = rng.uniformInt(1, 60); i > 0; --i) {
        containers.push_back(rng.uniformInt(1, 150));
      }
    } else if (shape == 3) {
      for (std::int64_t i = rng.uniformInt(1, 4); i > 0; --i) {
        containers.push_back(rng.uniformInt(200, 2000));
      }
    } else {
      for (std::int64_t i = rng.uniformInt(1, 40); i > 0; --i) {
        containers.push_back(rng.uniformInt(1, 16000));
      }
    }
    rng.shuffle(containers);

    std::vector<std::int64_t> items;
    const std::int64_t maxItem = shape == 0 ? 40 : shape == 4 ? 8000 : 160;
    for (std::int64_t r = rng.uniformInt(1, 6); r > 0; --r) {
      const std::int64_t length = rng.uniformInt(1, 80);
      const std::int64_t value = rng.uniformInt(1, maxItem);
      items.insert(items.end(), length, value);
    }
    if (shape == 2) items.push_back(151);  // larger than every container
    std::sort(items.begin(), items.end(), std::greater<>());

    const ReferenceFit expected = referenceBestFit(items, containers);
    ASSERT_EQ(bestFitUnpacked(items, containers), expected.unpacked)
        << "case " << c << " (shape " << shape << ")";
    std::int64_t largest = 0;
    std::int64_t smallest = 16000;
    bool hasNonPositive = false;
    for (const std::int64_t v : containers) {
      largest = std::max(largest, v);
      smallest = std::min(smallest, v);
      hasNonPositive = hasNonPositive || v <= 0;
    }
    if (shape == 0 && containers.size() >= 64) busShaped += 1;
    if (largest - smallest > 4096) wideSpread += 1;
    if (hasNonPositive && largest > 0) nonPositive += 1;
    if (items.front() > largest) biggerItem += 1;
    if (expected.partialRuns > 0) partialRun += 1;
  }
  // Every feature the batched packing special-cases was exercised often.
  EXPECT_GT(busShaped, 1000);
  EXPECT_GT(nonPositive, 1000);
  EXPECT_GE(biggerItem, 2500);
  EXPECT_GT(partialRun, 1000);
  EXPECT_GT(wideSpread, 1000);
}

TEST(CapacityCounts, FirstAtLeastCrossesWordAndSummaryBoundaries) {
  // A bitmap word covers 64 values and a summary word 4096.
  constexpr std::int64_t kMax = 3 * 4096 + 100;
  const std::vector<std::int64_t> edges = {63,   64,   65,  4095,
                                           4096, 4097, kMax};
  for (const std::int64_t v : edges) {
    CapacityCounts counts;
    counts.reset(kMax);
    EXPECT_EQ(counts.firstAtLeast(0), -1);
    counts.add(v);
    EXPECT_EQ(counts.firstAtLeast(0), v);
    EXPECT_EQ(counts.firstAtLeast(v - 1), v);
    EXPECT_EQ(counts.firstAtLeast(v), v);
    EXPECT_EQ(counts.firstAtLeast(v + 1), -1);
  }

  CapacityCounts counts;
  counts.reset(kMax);
  std::set<std::int64_t> present;
  for (const std::int64_t v : edges) {
    counts.add(v, 2);
    present.insert(v);
  }
  const auto expectScan = [&] {
    for (std::int64_t v = 0; v <= kMax + 1; ++v) {
      const auto it = present.lower_bound(v);
      ASSERT_EQ(counts.firstAtLeast(v), it == present.end() ? -1 : *it)
          << "from " << v;
    }
  };
  expectScan();
  // One of two copies leaves the value present; the last copy clears it.
  for (const std::int64_t v : edges) {
    counts.remove(v);
    EXPECT_EQ(counts.count(v), 1);
    EXPECT_EQ(counts.firstAtLeast(v), v);
    counts.remove(v);
    present.erase(v);
    EXPECT_EQ(counts.count(v), 0);
    expectScan();
  }
  EXPECT_EQ(counts.firstAtLeast(0), -1);
}

TEST(LargestFutureDemand, FillsUpToTotalSlack) {
  const auto demand = largestFutureDemand(singleValue(100), 450);
  ASSERT_EQ(demand.size(), 4u);  // 4x100 <= 450 < 5x100
  for (auto v : demand) EXPECT_EQ(v, 100);
}

TEST(LargestFutureDemand, ZeroOrTinySlack) {
  EXPECT_TRUE(largestFutureDemand(singleValue(100), 0).empty());
  EXPECT_TRUE(largestFutureDemand(singleValue(100), 99).empty());
  EXPECT_EQ(largestFutureDemand(singleValue(100), 100).size(), 1u);
}

TEST(LargestFutureDemand, MixedDistributionStaysDescendingAndBounded) {
  const DiscreteDistribution d(
      {{20, 0.2}, {50, 0.4}, {100, 0.3}, {150, 0.1}});
  const auto demand = largestFutureDemand(d, 5000);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    sum += demand[i];
    if (i > 0) {
      EXPECT_LE(demand[i], demand[i - 1]);
    }
  }
  EXPECT_LE(sum, 5000);
  EXPECT_GT(sum, 4800);  // small items should top it up close to the slack
}

// ---- the slide-12 scenario ------------------------------------------------

TEST(C1Metric, ContiguousSlackScoresZero) {
  // One 400-tick gap; future processes of 100 ticks each.
  const SlackInfo slack = slackWithNodeGaps({{{{100, 500}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  const DesignMetrics m = computeMetrics(slack, profile);
  EXPECT_DOUBLE_EQ(m.c1p, 0.0);
}

TEST(C1Metric, FragmentedSlackScoresSeventyFivePercent) {
  // Same 400 ticks of slack, but split 80+80+80+160: only the 160 fragment
  // can hold one 100-tick future process; 300 of 400 demand is unpacked.
  const SlackInfo slack = slackWithNodeGaps(
      {{{{0, 80}, {200, 280}, {400, 480}, {600, 760}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  const DesignMetrics m = computeMetrics(slack, profile);
  EXPECT_DOUBLE_EQ(m.c1p, 75.0);
}

TEST(C1Metric, SlackAcrossNodesIsPooled) {
  // Two nodes with 200-tick gaps each: demand 4x100, all packable.
  const SlackInfo slack = slackWithNodeGaps({{{{0, 200}}}, {{{0, 200}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  EXPECT_DOUBLE_EQ(computeMetrics(slack, profile).c1p, 0.0);
}

TEST(C1Metric, NoSlackAtAllScoresHundred) {
  const SlackInfo slack = slackWithNodeGaps({{}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  EXPECT_DOUBLE_EQ(computeMetrics(slack, profile).c1p, 100.0);
}

TEST(C1Metric, SlackTooSmallForAnyItemScoresZeroDemand) {
  // 50 ticks of slack cannot hold even one 100-tick process, so the
  // "largest future application" is empty and nothing is unpackable.
  const SlackInfo slack = slackWithNodeGaps({{{{0, 50}}}});
  const FutureProfile profile = profileWith(singleValue(100), singleValue(4));
  EXPECT_DOUBLE_EQ(computeMetrics(slack, profile).c1p, 0.0);
}

// ---- C1m: same criterion on the bus ----------------------------------------

SlackInfo slackWithBusChunks(std::vector<Time> freeTicks,
                             std::int64_t bytesPerTick = 1) {
  SlackInfo s;
  s.horizon = 1000;
  s.busBytesPerTick = bytesPerTick;
  s.nodeFree.emplace_back(std::vector<Interval>{{0, 1000}});
  Time t = 0;
  std::int64_t round = 0;
  for (Time f : freeTicks) {
    s.busChunks.push_back({0, round++, t, f});
    t += 100;
  }
  return s;
}

TEST(C1Metric, BusContiguousVersusFragmented) {
  const FutureProfile profile = profileWith(singleValue(10), singleValue(8));
  // One 32-byte chunk: 4 messages of 8 bytes fit.
  EXPECT_DOUBLE_EQ(computeMetrics(slackWithBusChunks({32}), profile).c1m,
                   0.0);
  // 8 chunks of 4 bytes: same 32 bytes, nothing fits.
  const auto m =
      computeMetrics(slackWithBusChunks({4, 4, 4, 4, 4, 4, 4, 4}), profile);
  EXPECT_DOUBLE_EQ(m.c1m, 100.0);
}

TEST(C1Metric, BusBytesScaleWithBandwidth) {
  const FutureProfile profile = profileWith(singleValue(10), singleValue(8));
  // 4 free ticks at 2 bytes/tick = 8 bytes: exactly one message.
  const auto m = computeMetrics(slackWithBusChunks({4}, 2), profile);
  EXPECT_DOUBLE_EQ(m.c1m, 0.0);
}

TEST(C1Metric, RejectsInvalidProfile) {
  const SlackInfo slack = slackWithNodeGaps({{{{0, 100}}}});
  FutureProfile bad;
  EXPECT_THROW(computeMetrics(slack, bad), std::invalid_argument);
}

}  // namespace
}  // namespace ides
