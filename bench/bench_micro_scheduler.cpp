// Micro-benchmarks of the evaluation inner loop (ablation A3 in DESIGN.md):
// platform-state copy, list scheduling, the EvalContext walk, slack
// extraction. These dominate the runtime of MH and SA, so their throughput
// is what makes the paper's heuristics tractable at 400+320 processes.
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

// The EvalContext walk in isolation: a context alternates between the
// initial mapping and one single-process move of it, so every evaluation
// walks from the moved process's first job, keeping or re-placing the jobs
// after it (arg 0: a start-hint move, arg 1: a re-map onto another allowed
// node). Counters: jobs visited and re-placed per evaluation.
void BM_EvalContextWalk(benchmark::State& state) {
  Instance& inst = instanceFor(320);
  const SystemModel& sys = inst.suite.system;
  const SolutionEvaluator eval(sys, inst.frozen.state, inst.suite.profile,
                               MetricWeights{});
  const std::vector<ProcessId>& procs =
      sys.graph(eval.currentGraphs().front()).processes;
  const ProcessId p = procs[procs.size() / 2];
  MappingSolution moved = inst.mapping;
  moved.setStartHint(p, moved.startHint(p) + 7);
  if (state.range(0) == 1) {
    for (const NodeId n : sys.process(p).allowedNodes()) {
      if (n != inst.mapping.nodeOf(p)) {
        moved = inst.mapping;
        moved.setNode(p, n);
        break;
      }
    }
  }
  EvalContext ctx(eval);
  ctx.evaluate(inst.mapping);
  const std::size_t visited = ctx.jobsVisited();
  const std::size_t replaced = ctx.jobsReplaced();
  bool back = false;
  for (auto _ : state) {
    const EvalResult r = ctx.evaluate(back ? inst.mapping : moved);
    benchmark::DoNotOptimize(r.cost);
    back = !back;
  }
  const auto evaluations = static_cast<double>(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "start-hint" : "re-map");
  state.counters["visited"] =
      static_cast<double>(ctx.jobsVisited() - visited) / evaluations;
  state.counters["replaced"] =
      static_cast<double>(ctx.jobsReplaced() - replaced) / evaluations;
}
BENCHMARK(BM_EvalContextWalk)->Arg(0)->Arg(1);

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
