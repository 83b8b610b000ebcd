// Micro-benchmarks of the design metrics (ablation A4 in DESIGN.md):
// C1 best-fit packing and C2 window scans, at realistic slack-fragment
// counts, through the full pass and through an IncrementalMetrics
// snapshot, and one edit of that snapshot.
#include <benchmark/benchmark.h>

#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "core/metrics.h"
#include "tgen/benchmark_suite.h"
#include "tgen/profile_presets.h"

namespace {

using namespace ides;

SuiteConfig configFor(std::size_t currentProcesses) {
  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = currentProcesses;
  cfg.futureAppCount = 0;
  return cfg;
}

/// A paper instance (10 nodes, 400 existing processes) after its Initial
/// Mapping. The state points into the suite's architecture, so the two
/// live together, in static storage.
struct MappedInstance {
  MappedInstance(std::size_t current, std::uint64_t seed)
      : suite(buildSuite(configFor(current), seed)),
        state(freezeExistingApplications(suite.system).state) {
    initialMapping(suite.system, state);
  }
  Suite suite;
  PlatformState state;
};

/// The 160-process instance after its Initial Mapping.
const PlatformState& realisticState() {
  static const MappedInstance instance(160, 2);
  return instance.state;
}

SlackInfo realisticSlack() { return extractSlack(realisticState()); }

void BM_ComputeAllMetrics(benchmark::State& state) {
  const SlackInfo slack = realisticSlack();
  const FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  for (auto _ : state) {
    DesignMetrics m = computeMetrics(slack, profile);
    benchmark::DoNotOptimize(m.c1p);
  }
}
BENCHMARK(BM_ComputeAllMetrics);

/// IncrementalMetrics::metrics() on the same occupancy: the C1 packing on
/// the snapshot's counts plus the C2 window minima, what every feasible
/// evaluation pays after its walk. The paper profile counts in units of
/// 10 ticks and 2 bytes; the unit-1 profile has the same shape with values
/// that share no factor, so it counts in ticks and bytes.
void BM_SnapshotMetrics(benchmark::State& state, bool unitOne) {
  FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  if (unitOne) {
    profile.wcetDistribution =
        DiscreteDistribution({{21, 0.2}, {50, 0.4}, {100, 0.3}, {151, 0.1}});
    profile.messageSizeDistribution =
        DiscreteDistribution({{3, 0.2}, {4, 0.4}, {6, 0.3}, {8, 0.1}});
  }
  IncrementalMetrics snapshot;
  snapshot.rebuild(realisticState(), profile);
  for (auto _ : state) {
    DesignMetrics m = snapshot.metrics();
    benchmark::DoNotOptimize(m.c1p);
  }
}
BENCHMARK_CAPTURE(BM_SnapshotMetrics, paper, false);
BENCHMARK_CAPTURE(BM_SnapshotMetrics, unit1, true);

/// One edit pair of a walk's commit on the 320-process instance's snapshot:
/// occupy a 10-tick range (one WCET unit) in the middle of node 0's middle
/// free gap, splitting it, and release it again, merging it back. The C1
/// counts and the Tmin windows move with each edit.
void BM_SnapshotEdit(benchmark::State& state) {
  static const MappedInstance instance(320, 1);
  const PlatformState& mapped = instance.state;
  const FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  IncrementalMetrics snapshot;
  snapshot.rebuild(mapped, profile);
  const NodeId node{0};
  const std::vector<Interval> gaps = mapped.nodeFree(node).intervals();
  std::vector<Interval> wide;
  for (const Interval& gap : gaps) {
    if (gap.length() >= 30) wide.push_back(gap);
  }
  if (wide.empty()) {
    state.SkipWithError("node 0 has no free gap of 30 ticks");
    return;
  }
  const Interval gap = wide[wide.size() / 2];
  const Time mid = gap.start + gap.length() / 2;
  const Interval range{mid - 5, mid + 5};
  for (auto _ : state) {
    snapshot.occupyNode(node, range);
    snapshot.releaseNode(node, range);
  }
  state.counters["gaps"] = static_cast<double>(gaps.size());
}
BENCHMARK(BM_SnapshotEdit);

/// Args: container count, distinct capacities. 200 distinct values is the
/// spread of processor gaps; a few values with many copies each is the
/// shape of the bus, whose slot occurrences share a handful of lengths.
void BM_BestFitPacking(benchmark::State& state) {
  const std::int64_t containerCount = state.range(0);
  const std::int64_t distinct = state.range(1);
  std::vector<std::int64_t> containers;
  containers.reserve(static_cast<std::size_t>(containerCount));
  for (std::int64_t i = 0; i < containerCount; ++i) {
    containers.push_back(40 + ((i % distinct) * 37) % 200);
  }
  std::int64_t total = 0;
  for (auto c : containers) total += c;
  const auto items = largestFutureDemand(paperWcetDistribution(), total);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bestFitUnpacked(items, containers));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_BestFitPacking)
    ->Args({64, 200})
    ->Args({256, 200})
    ->Args({1024, 200})
    ->Args({2048, 8});  // bus-shaped: 8 sizes x 256 copies

void BM_DeterministicStream(benchmark::State& state) {
  const DiscreteDistribution d = paperWcetDistribution();
  for (auto _ : state) {
    auto stream = d.deterministicStream(
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(stream.data());
  }
}
BENCHMARK(BM_DeterministicStream)->Arg(100)->Arg(1000);

void BM_ObjectiveValue(benchmark::State& state) {
  DesignMetrics m;
  m.c1p = 12.5;
  m.c1m = 3.5;
  m.c2p = 2500;
  m.c2mBytes = 300;
  const FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  const MetricWeights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(objectiveValue(m, profile, w));
  }
}
BENCHMARK(BM_ObjectiveValue);

}  // namespace

BENCHMARK_MAIN();
