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

/// The improve step: one branch per strategy. Improves `solution`
/// (feasible on entry) in place, sets `report.stopped` when a stop token
/// cut the improvement short, fills the report's move-generation telemetry
/// where the strategy tracks it, and returns the evaluations consumed. AH
/// stops at the first valid solution, so it has no branch.
std::size_t improve(const std::string& name, const DesignerOptions& options,
                    const SolutionEvaluator& evaluator,
                    MappingSolution& solution, RunContext& context,
                    EvalContext& eval, RunReport& report) {
  if (name == "MH") {
    MhOptions mh = options.mh;
    if (mh.stop == nullptr) mh.stop = context.stop;
    MhResult result = runMappingHeuristic(evaluator, solution, mh, &eval);
    solution = std::move(result.solution);
    report.stopped = result.stopped;
    context.report({"MH", "improve", result.evaluations, 0, result.eval.cost});
    return result.evaluations;
  }
  if (name == "SA") {
    SaOptions sa = options.sa;
    if (sa.stop == nullptr) sa.stop = context.stop;
    // Worker 0 of the chain borrows the run's context.
    SaResult result = runSimulatedAnnealing(evaluator, solution, sa, &eval);
    solution = std::move(result.solution);
    report.stopped = result.stopped;
    report.proposals = result.proposals;
    report.accepted = result.accepted;
    report.zeroDeltaSkips = result.zeroDeltaSkips;
    context.report({"SA", "improve", result.evaluations, 0, result.eval.cost});
    return result.evaluations;
  }
  if (name == "PSA") {
    // One knob set for chain parameters: PSA takes its per-chain options
    // from `sa`.
    ParallelSaOptions psa = options.psa;
    psa.base = options.sa;
    if (psa.base.stop == nullptr) psa.base.stop = context.stop;
    ParallelSaResult result = runParallelAnnealing(evaluator, solution, psa);
    solution = std::move(result.solution);
    report.stopped = result.stopped;
    report.proposals = result.proposals;
    report.accepted = result.accepted;
    report.zeroDeltaSkips = result.zeroDeltaSkips;
    context.report(
        {"PSA", "improve", result.evaluations, 0, result.eval.cost});
    return result.evaluations;
  }
  if (name == "tabu") {
    TabuOptions tabu = options.tabu;
    if (tabu.stop == nullptr) tabu.stop = context.stop;
    TabuResult result = runTabuSearch(evaluator, solution, tabu, &eval);
    solution = std::move(result.solution);
    report.stopped = result.stopped;
    report.proposals = result.proposals;
    report.accepted = result.accepted;
    context.report(
        {"tabu", "improve", result.evaluations, 0, result.eval.cost});
    return result.evaluations;
  }
  return 0;
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

EvalContext& RunContext::evalContext(const SolutionEvaluator& evaluator) {
  if (eval_ == nullptr || &eval_->evaluator() != &evaluator) {
    eval_ = std::make_unique<EvalContext>(evaluator);
  }
  return *eval_;
}

const std::vector<std::string>& strategyNames() {
  static const std::vector<std::string> names = {"AH", "MH", "SA", "PSA",
                                                 "tabu"};
  return names;
}

void requireStrategy(const std::string& name) {
  const std::vector<std::string>& names = strategyNames();
  if (std::find(names.begin(), names.end(), name) != names.end()) return;
  std::string known;
  for (const std::string& n : names) known += known.empty() ? n : ", " + n;
  throw std::invalid_argument("unknown strategy \"" + name +
                              "\" (available: " + known + ")");
}

RunReport runStrategy(const std::string& name, const DesignerOptions& options,
                      const SolutionEvaluator& evaluator, RunContext& context,
                      const MappingSolution* warmStart) {
  requireStrategy(name);
  validateOptions(options);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  RunReport report;
  report.strategy = name;
  const TraceSpan span(
      "optimizer:" + name + (warmStart != nullptr ? ":warm" : ""), "core");
  EvalContext& eval = context.evalContext(evaluator);

  // Check a start before improving it: improve() requires a feasible entry
  // solution. Warm starts can be stale (the platform or the application
  // set changed since the placements were committed). Without a usable
  // seed every strategy starts from the same Initial Mapping of the
  // evaluator's movable graphs on its baseline, which commits the graphs in
  // their given order — the evaluator's heaviest-first order can still
  // miss deadlines, and then the run reports the Initial Mapping as is.
  MappingSolution solution;
  bool feasible = false;
  if (warmStart != nullptr) {
    const EvalResult seed = eval.evaluate(*warmStart);
    ++report.evaluations;
    if (seed.feasible) {
      solution = *warmStart;
      feasible = true;
      context.report({name, "warm-start", 0, 0, seed.cost});
    }
  }
  if (!feasible) {
    PlatformState state = evaluator.baseline();
    ScheduleOutcome im = initialMapping(
        evaluator.system(), evaluator.movableGraphs(), state);
    ++report.evaluations;  // the IM and its check count as one
    context.report({name, "initial-mapping", 0, 0, 0.0});
    if (!im.feasible) {
      report.seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      recordRunTelemetry(report);
      return report;
    }
    solution = std::move(im.mapping);
    feasible = eval.evaluate(solution).feasible;
  }

  if (context.stopRequested()) {
    report.stopped = true;
  } else if (feasible) {
    report.evaluations +=
        improve(name, options, evaluator, solution, context, eval, report);
  }

  // Final full evaluation through the run's context (bit-identical to the
  // stateless pass; walks from whatever reference the improvement left).
  ScheduleOutcome outcome;
  const EvalResult result = eval.evaluate(solution, &outcome, nullptr);
  ++report.evaluations;
  context.report({name, "final", report.evaluations, 0, result.cost});

  report.feasible = result.feasible;
  report.mapping = std::move(solution);
  report.schedule = std::move(outcome.schedule);
  report.metrics = result.metrics;
  report.objective = result.cost;
  report.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  recordRunTelemetry(report);
  return report;
}

}  // namespace ides
