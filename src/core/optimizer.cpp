#include "core/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "obs/telemetry.h"

namespace ides {

namespace {

/// Per-strategy run telemetry, recorded once per completed run from the
/// report's own counters — the sums the strategy engines already track, so
/// the inner loops pay nothing extra. Write-only by design: nothing here
/// is ever read back into a decision (result neutrality).
void recordRunTelemetry(const RunReport& report) {
  if (!telemetryEnabled()) return;
  TelemetryRegistry& reg = telemetry();
  const MetricLabels labels = {{"strategy", report.strategy}};
  reg.counter("ides_opt_runs_total", "Completed optimizer runs", labels)
      .add();
  reg.counter("ides_opt_evaluations_total",
              "Schedule evaluations consumed by optimizer runs", labels)
      .add(report.evaluations);
  reg.counter("ides_opt_proposals_total",
              "Moves proposed by annealing/tabu inner loops", labels)
      .add(report.proposals);
  reg.counter("ides_opt_accepted_total",
              "Proposed moves accepted by the strategy", labels)
      .add(report.accepted);
  reg.counter("ides_opt_zero_delta_skips_total",
              "Proposals replayed by the zero-delta filter without "
              "evaluation",
              labels)
      .add(report.zeroDeltaSkips);
  reg.histogram("ides_opt_run_seconds",
                "Wall-clock seconds per optimizer run",
                {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0}, labels)
      .observe(report.seconds);
}

}  // namespace

void validateOptions(const DesignerOptions& options) {
  const auto weightOk = [](double w) { return std::isfinite(w) && w >= 0.0; };
  if (!weightOk(options.weights.w1p) || !weightOk(options.weights.w1m) ||
      !weightOk(options.weights.w2p) || !weightOk(options.weights.w2m)) {
    throw std::invalid_argument(
        "DesignerOptions: metric weights must be finite and >= 0");
  }
  validateOptions(options.mh);
  validateOptions(options.sa);
  validateOptions(options.tabu);
  // PSA runs with psa.base replaced by `sa`, so validate that combination
  // (psa.base itself is documented as ignored).
  ParallelSaOptions psa = options.psa;
  psa.base = options.sa;
  validateOptions(psa);
}

EvalContextPool& RunContext::leasePool(const SolutionEvaluator& evaluator,
                                       std::size_t size) {
  if (pool_ == nullptr || poolEvaluator_ != &evaluator ||
      pool_->size() < size) {
    pool_ = std::make_unique<EvalContextPool>(evaluator, std::max<std::size_t>(
                                                             size, 1));
    poolEvaluator_ = &evaluator;
  }
  return *pool_;
}

RunReport Optimizer::run(const SolutionEvaluator& evaluator,
                         RunContext& context,
                         const MappingSolution* warmStart) const {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  RunReport report;
  report.strategy = name();
  const TraceSpan span(
      "optimizer:" + report.strategy + (warmStart != nullptr ? ":warm" : ""),
      "core");

  // Validate a seed before committing to it: warm starts can be stale (the
  // platform or the application set changed since the placements were
  // committed), and improve() requires a feasible entry solution. Without
  // a usable seed every strategy starts from the same Initial Mapping of
  // the evaluator's movable graphs on its baseline.
  MappingSolution solution;
  bool seeded = false;
  if (warmStart != nullptr) {
    const EvalResult seed =
        context.leasePool(evaluator, 1)[0].evaluate(*warmStart);
    ++report.evaluations;
    if (seed.feasible) {
      solution = *warmStart;
      seeded = true;
      context.report({report.strategy, "warm-start", 0, 0, seed.cost});
    }
  }
  if (!seeded) {
    PlatformState state = evaluator.baseline();
    ScheduleOutcome im = initialMapping(
        evaluator.system(), evaluator.movableGraphs(), state);
    ++report.evaluations;
    context.report({report.strategy, "initial-mapping", 0, 0, 0.0});
    if (!im.feasible) {
      report.seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      recordRunTelemetry(report);
      return report;
    }
    solution = std::move(im.mapping);
  }

  if (context.stopRequested()) {
    report.stopped = true;
  } else {
    report.evaluations += improve(evaluator, solution, context, report);
  }

  // Final full evaluation through the leased context (bit-identical to the
  // stateless pass; re-uses whatever checkpoints the improvement left).
  EvalContext& final = context.leasePool(evaluator, 1)[0];
  ScheduleOutcome outcome;
  const EvalResult eval = final.evaluate(solution, &outcome, nullptr);
  ++report.evaluations;
  context.report(
      {report.strategy, "final", report.evaluations, 0, eval.cost});

  report.feasible = eval.feasible;
  report.mapping = std::move(solution);
  report.schedule = std::move(outcome.schedule);
  report.metrics = eval.metrics;
  report.objective = eval.cost;
  report.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  recordRunTelemetry(report);
  return report;
}

// ---- built-in optimizers --------------------------------------------------

MappingHeuristicOptimizer::MappingHeuristicOptimizer(MhOptions options)
    : options_(options) {
  validateOptions(options_);
}

std::size_t MappingHeuristicOptimizer::improve(
    const SolutionEvaluator& evaluator, MappingSolution& solution,
    RunContext& context, RunReport& report) const {
  MhOptions options = options_;
  if (options.stop == nullptr) options.stop = context.stop;
  MhResult mh = runMappingHeuristic(evaluator, solution, options,
                                    &context.leasePool(evaluator, 1)[0]);
  solution = std::move(mh.solution);
  report.stopped = mh.stopped;
  context.report({"MH", "improve", mh.evaluations, 0, mh.eval.cost});
  return mh.evaluations;
}

SimulatedAnnealingOptimizer::SimulatedAnnealingOptimizer(SaOptions options)
    : options_(options) {
  validateOptions(options_);
}

std::size_t SimulatedAnnealingOptimizer::improve(
    const SolutionEvaluator& evaluator, MappingSolution& solution,
    RunContext& context, RunReport& report) const {
  SaOptions options = options_;
  if (options.stop == nullptr) options.stop = context.stop;
  // Worker 0 of the chain borrows the leased scratch.
  SaResult sa = runSimulatedAnnealing(evaluator, solution, options,
                                      &context.leasePool(evaluator, 1)[0]);
  solution = std::move(sa.solution);
  report.stopped = sa.stopped;
  report.proposals = sa.proposals;
  report.accepted = sa.accepted;
  report.zeroDeltaSkips = sa.zeroDeltaSkips;
  context.report({"SA", "improve", sa.evaluations, 0, sa.eval.cost});
  return sa.evaluations;
}

ParallelAnnealingOptimizer::ParallelAnnealingOptimizer(
    ParallelSaOptions options)
    : options_(options) {
  validateOptions(options_);
}

std::size_t ParallelAnnealingOptimizer::improve(
    const SolutionEvaluator& evaluator, MappingSolution& solution,
    RunContext& context, RunReport& report) const {
  ParallelSaOptions options = options_;
  if (options.base.stop == nullptr) options.base.stop = context.stop;
  ParallelSaResult psa = runParallelAnnealing(evaluator, solution, options);
  solution = std::move(psa.solution);
  report.stopped = psa.stopped;
  report.proposals = psa.proposals;
  report.accepted = psa.accepted;
  report.zeroDeltaSkips = psa.zeroDeltaSkips;
  context.report({"PSA", "improve", psa.evaluations, 0, psa.eval.cost});
  return psa.evaluations;
}

TabuSearchOptimizer::TabuSearchOptimizer(TabuOptions options)
    : options_(options) {
  validateOptions(options_);
}

std::size_t TabuSearchOptimizer::improve(const SolutionEvaluator& evaluator,
                                         MappingSolution& solution,
                                         RunContext& context,
                                         RunReport& report) const {
  TabuOptions options = options_;
  if (options.stop == nullptr) options.stop = context.stop;
  TabuResult tabu = runTabuSearch(evaluator, solution, options,
                                  &context.leasePool(evaluator, 1)[0]);
  solution = std::move(tabu.solution);
  report.stopped = tabu.stopped;
  report.proposals = tabu.proposals;
  report.accepted = tabu.accepted;
  context.report({"tabu", "improve", tabu.evaluations, 0, tabu.eval.cost});
  return tabu.evaluations;
}

// ---- registry -------------------------------------------------------------

void StrategyRegistry::add(std::string name, Factory factory) {
  if (contains(name)) {
    throw std::invalid_argument("StrategyRegistry: duplicate strategy \"" +
                                name + "\"");
  }
  factories_.emplace_back(std::move(name), std::move(factory));
}

bool StrategyRegistry::contains(const std::string& name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return true;
  }
  return false;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

std::unique_ptr<Optimizer> StrategyRegistry::create(
    const std::string& name, const DesignerOptions& options) const {
  for (const auto& [n, factory] : factories_) {
    if (n == name) {
      validateOptions(options);
      return factory(options);
    }
  }
  std::string known;
  for (const auto& [n, f] : factories_) {
    known += known.empty() ? n : ", " + n;
  }
  throw std::invalid_argument("unknown strategy \"" + name +
                              "\" (registered: " + known + ")");
}

const StrategyRegistry& StrategyRegistry::builtin() {
  static const StrategyRegistry registry = [] {
    StrategyRegistry r;
    r.add("AH", [](const DesignerOptions&) {
      return std::make_unique<AdHocOptimizer>();
    });
    r.add("MH", [](const DesignerOptions& o) {
      return std::make_unique<MappingHeuristicOptimizer>(o.mh);
    });
    r.add("SA", [](const DesignerOptions& o) {
      return std::make_unique<SimulatedAnnealingOptimizer>(o.sa);
    });
    r.add("PSA", [](const DesignerOptions& o) {
      // One knob set for chain parameters: PSA takes its per-chain options
      // from `sa`, exactly like the legacy designer switch did.
      ParallelSaOptions psa = o.psa;
      psa.base = o.sa;
      return std::make_unique<ParallelAnnealingOptimizer>(psa);
    });
    r.add("tabu", [](const DesignerOptions& o) {
      return std::make_unique<TabuSearchOptimizer>(o.tabu);
    });
    return r;
  }();
  return registry;
}

}  // namespace ides
