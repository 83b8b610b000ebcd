// The strategy entry point.
//
// Every mapping strategy — the paper's AH / MH / SA and this repo's PSA and
// tabu — runs through one function:
// `runStrategy(name, options, evaluator, context[, warmStart]) -> RunReport`.
// Every run has the same shape: start from the Initial Mapping of the
// evaluator's movable graphs on its frozen baseline (or from a caller's
// warm-start seed), check that start in the run's evaluation context,
// improve it with the named strategy when it is feasible, and report the
// final solution with its metrics. A strategy is a name; its typed options
// come from the one DesignerOptions bag, so configuration stays statically
// checked. Adding a strategy is one name in strategyNames() plus one branch
// in runStrategy's improve step.
//
// RunContext carries the run's cross-cutting services:
//   * one EvalContext — delta-aware evaluation scratch bound to the
//     evaluator and shared across successive runs on it (the AH/MH/SA
//     comparison on one instance re-uses one context instead of re-copying
//     the baseline per strategy);
//   * a cooperative StopToken (deadline + cancellation) threaded into the
//     strategy inner loops, so a fired token yields a well-formed partial
//     result with RunReport::stopped set;
//   * a ProgressSink notified at the run's phase boundaries.
//
// Determinism: a RunReport is a pure function of (strategy name, options,
// evaluator, warm start); the context services never perturb results — the
// evaluation context is verified-never-trusted, and an unfired stop token
// leaves trajectories bit-identical (asserted by the optimizer test suite
// against direct runSimulatedAnnealing / runParallelAnnealing calls).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/mapping_heuristic.h"
#include "core/metrics.h"
#include "core/parallel_annealing.h"
#include "core/simulated_annealing.h"
#include "core/tabu_search.h"
#include "obs/trace.h"
#include "sched/schedule.h"
#include "util/stop_token.h"

namespace ides {

/// One bag of options for every strategy: each strategy reads the fields it
/// needs, so a single instance configures a whole AH/MH/SA/PSA comparison
/// consistently.
struct DesignerOptions {
  MetricWeights weights;
  MhOptions mh;
  /// Chain parameters for both SA and PSA (PSA overrides `psa.base` with
  /// this, so one knob set configures the single chain and the ensemble).
  SaOptions sa;
  /// PSA ensemble shape (threads/restarts/perChainIterations); `psa.base`
  /// is ignored here — see `sa`.
  ParallelSaOptions psa;
  /// Tabu-search budget and memory shape (the "tabu" strategy).
  TabuOptions tabu;
};

/// Range-checks the weights and every embedded strategy option set; throws
/// std::invalid_argument naming the offending field. Called by the
/// IncrementalDesigner constructor and by runStrategy, so invalid
/// configurations fail loudly at setup instead of misbehaving silently.
void validateOptions(const DesignerOptions& options);

/// One phase-boundary notification of an optimizer or batch run.
struct ProgressEvent {
  std::string_view optimizer;  ///< strategy name (or batch instance id)
  std::string_view phase;      ///< "initial-mapping", "improve", "final", …
  std::size_t step = 0;        ///< phase-dependent counter (e.g. instance #)
  std::size_t total = 0;       ///< counter bound when known, else 0
  double cost = 0.0;           ///< current objective/cost when known
};
using ProgressSink = std::function<void(const ProgressEvent&)>;

/// Cross-cutting services of one or more optimizer runs. Reusable: running
/// several strategies on the same evaluator through one context shares its
/// evaluation context.
class RunContext {
 public:
  RunContext() = default;

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Cooperative cancellation; null = never stops.
  const StopToken* stop = nullptr;
  /// Phase-boundary progress notifications; empty = silent.
  ProgressSink progress;

  [[nodiscard]] bool stopRequested() const {
    return stop != nullptr && stop->stopRequested();
  }
  void report(const ProgressEvent& event) const {
    if (traceEnabled()) {
      traceInstant(
          std::string(event.optimizer) + ":" + std::string(event.phase),
          "progress");
    }
    if (progress) progress(event);
  }

  /// The run's evaluation context bound to `evaluator`, created on first
  /// use and reused by later calls with the same evaluator. Asking for a
  /// different evaluator replaces it — the context never outlives its
  /// evaluator as long as the RunContext is not reused across evaluator
  /// lifetimes (the batch runner builds one RunContext per instance for
  /// exactly this reason).
  EvalContext& evalContext(const SolutionEvaluator& evaluator);

 private:
  std::unique_ptr<EvalContext> eval_;
};

/// What every strategy reports: the paper's comparison row for one run.
struct RunReport {
  std::string strategy;  ///< the strategy name runStrategy was given
  bool feasible = false;
  MappingSolution mapping;
  /// Schedule of the current application only (frozen part excluded).
  Schedule schedule;
  DesignMetrics metrics;
  /// Objective C of the final solution.
  double objective = 0.0;
  /// Wall-clock runtime in seconds (includes the Initial Mapping).
  double seconds = 0.0;
  std::size_t evaluations = 0;
  /// Move-generation telemetry of the improvement phase, summed over every
  /// annealing chain the strategy ran (all zero for AH and MH, which do not
  /// draw from a proposal stream): proposals drawn, moves accepted, and the
  /// subset of proposals the gap-fingerprint zero-delta filter replayed
  /// without any evaluation.
  std::size_t proposals = 0;
  std::size_t accepted = 0;
  std::size_t zeroDeltaSkips = 0;
  /// True when a StopToken ended the run before its configured budget.
  bool stopped = false;
};

/// The strategies runStrategy knows, in presentation order: AH, MH, SA,
/// PSA, tabu.
[[nodiscard]] const std::vector<std::string>& strategyNames();

/// Throws std::invalid_argument — "unknown strategy "x" (available: AH, MH,
/// SA, PSA, tabu)" — unless `name` is one of strategyNames().
void requireStrategy(const std::string& name);

/// One strategy run: start, improvement, final evaluation. Validates the
/// name and `options` on entry. The start is `warmStart` when it is non-null
/// and evaluates feasibly in the run's evaluation context (progress phase
/// "warm-start"), else the Initial Mapping of the evaluator's movable
/// graphs on its baseline ("initial-mapping"). The Initial Mapping gets the
/// same check: it commits the graphs in their given order, the evaluator
/// schedules them heaviest-first, so it can miss deadlines there — then the
/// run skips the improvement and reports the Initial Mapping with its
/// penalty cost. A rejected seed still counts its one validation evaluation
/// in the report; the Initial Mapping counts one, check included. Never
/// reports an infeasible mapping as feasible; a fired stop token yields the
/// best solution found so far.
[[nodiscard]] RunReport runStrategy(const std::string& name,
                                    const DesignerOptions& options,
                                    const SolutionEvaluator& evaluator,
                                    RunContext& context,
                                    const MappingSolution* warmStart = nullptr);

}  // namespace ides
