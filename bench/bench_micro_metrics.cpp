// Micro-benchmarks of the design metrics (ablation A4 in DESIGN.md):
// C1 best-fit packing and C2 window scans, at realistic slack-fragment
// counts.
#include <benchmark/benchmark.h>

#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "core/metrics.h"
#include "tgen/benchmark_suite.h"
#include "tgen/profile_presets.h"

namespace {

using namespace ides;

SlackInfo realisticSlack() {
  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = 160;
  cfg.futureAppCount = 0;
  static Suite suite = buildSuite(cfg, 2);
  static FrozenBase frozen = freezeExistingApplications(suite.system);
  static PlatformState state = [] {
    PlatformState s = frozen.state;
    initialMapping(suite.system, s);
    return s;
  }();
  return extractSlack(state);
}

void BM_ComputeAllMetrics(benchmark::State& state) {
  const SlackInfo slack = realisticSlack();
  const FutureProfile profile = paperFutureProfile(4000, 5520, 450);
  for (auto _ : state) {
    DesignMetrics m = computeMetrics(slack, profile);
    benchmark::DoNotOptimize(m.c1p);
  }
}
BENCHMARK(BM_ComputeAllMetrics);

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
