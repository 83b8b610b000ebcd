// Micro-benchmarks of the evaluation inner loop (ablation A3 in DESIGN.md):
// platform-state copy, list scheduling, slack extraction. These dominate
// the runtime of MH and SA, so their throughput is what makes the paper's
// heuristics tractable at 400+320 processes.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "arch/architecture.h"
#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "sched/slack.h"
#include "tgen/benchmark_suite.h"

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

struct Instance {
  Suite suite;
  FrozenBase frozen;
  MappingSolution mapping;

  explicit Instance(std::size_t current)
      : suite(buildSuite(configFor(current), 1)),
        frozen(freezeExistingApplications(suite.system)) {
    PlatformState state = frozen.state;
    mapping = initialMapping(suite.system, state).mapping;
  }
};

Instance& instanceFor(std::size_t current) {
  static std::map<std::size_t, std::unique_ptr<Instance>> cache;
  auto& slot = cache[current];
  if (!slot) slot = std::make_unique<Instance>(current);
  return *slot;
}

void BM_PlatformStateCopy(benchmark::State& state) {
  Instance& inst = instanceFor(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    PlatformState copy = inst.frozen.state;
    benchmark::DoNotOptimize(copy.totalNodeSlack());
  }
}
BENCHMARK(BM_PlatformStateCopy)->Arg(80)->Arg(320);

void BM_ScheduleCurrentApplication(benchmark::State& state) {
  Instance& inst = instanceFor(static_cast<std::size_t>(state.range(0)));
  const SystemModel& sys = inst.suite.system;
  ScheduleRequest req;
  req.graphs = sys.graphsOfKind(AppKind::Current);
  req.mapping = &inst.mapping;
  for (auto _ : state) {
    PlatformState copy = inst.frozen.state;
    ScheduleOutcome out = scheduleGraphs(sys, req, copy);
    benchmark::DoNotOptimize(out.feasible);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_ScheduleCurrentApplication)->Arg(40)->Arg(80)->Arg(160)->Arg(320);

// The EvalContext rewind in isolation: the current application's schedule
// is committed onto a journaled copy of the frozen base once, then every
// iteration rolls it back to the floor (arg 0, a full-pass rewind) or to the
// journal's midpoint (arg 1, a mid-graph mark) and re-commits the undone
// records untimed. Only rollbackTo is on the clock.
void BM_JournalRollback(benchmark::State& state) {
  Instance& inst = instanceFor(320);
  const SystemModel& sys = inst.suite.system;
  ScheduleRequest req;
  req.graphs = sys.graphsOfKind(AppKind::Current);
  req.mapping = &inst.mapping;
  PlatformState journaled = inst.frozen.state;
  journaled.setJournaling(true);
  scheduleGraphs(sys, req, journaled);
  const std::vector<PlatformState::JournalEntry> records = journaled.journal();
  const PlatformState::Mark target =
      state.range(0) == 0 ? 0 : records.size() / 2;
  for (auto _ : state) {
    journaled.rollbackTo(target);
    benchmark::ClobberMemory();
    state.PauseTiming();
    for (std::size_t i = target; i < records.size(); ++i) {
      const PlatformState::JournalEntry& e = records[i];
      if (e.kind == PlatformState::JournalEntry::Kind::Node) {
        journaled.occupyNode(NodeId{static_cast<std::int32_t>(e.index)}, e.iv);
      } else {
        journaled.occupyBus(e.index, e.round, e.txTicks);
      }
    }
    state.ResumeTiming();
  }
  state.SetLabel(state.range(0) == 0 ? "floor" : "mid-graph");
  state.counters["undone"] = static_cast<double>(records.size() - target);
}
BENCHMARK(BM_JournalRollback)->Arg(0)->Arg(1);

void BM_SlackExtraction(benchmark::State& state) {
  Instance& inst = instanceFor(80);
  for (auto _ : state) {
    SlackInfo slack = extractSlack(inst.frozen.state);
    benchmark::DoNotOptimize(slack.totalNodeSlack());
  }
}
BENCHMARK(BM_SlackExtraction);

void BM_FullEvaluation(benchmark::State& state) {
  Instance& inst = instanceFor(static_cast<std::size_t>(state.range(0)));
  SolutionEvaluator eval(inst.suite.system, inst.frozen.state,
                         inst.suite.profile, MetricWeights{});
  for (auto _ : state) {
    EvalResult r = eval.evaluate(inst.mapping);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_FullEvaluation)->Arg(40)->Arg(80)->Arg(160)->Arg(320);

// findBusSlot behind a saturated slot prefix: the first-free-round cursor
// makes the common append O(1) where the old scan walked every full round
// (arg = saturated rounds). The "ready" times sweep the horizon like real
// message release times do, so the cursor path and the binary-search path
// both stay exercised.
void BM_FindBusSlotSaturatedPrefix(benchmark::State& state) {
  const std::int64_t saturated = state.range(0);
  const Architecture arch = makeUniformArchitecture(2, 10, 1);
  const Time round = arch.bus().roundLength();
  PlatformState platform(arch, 4 * saturated * round);
  for (std::int64_t r = 0; r < saturated; ++r) platform.occupyBus(0, r, 10);
  Time ready = 0;
  for (auto _ : state) {
    auto hit = platform.findBusSlot(0, ready, 4);
    benchmark::DoNotOptimize(hit);
    ready = (ready + 37) % (saturated * round);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindBusSlotSaturatedPrefix)->Arg(64)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
