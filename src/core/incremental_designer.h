// IncrementalDesigner: the library facade.
//
// Wires the whole flow of the paper together: freeze the existing
// applications, construct the initial mapping, then improve it with the
// chosen strategy and report the design metrics, the objective C, and the
// wall-clock runtime. One designer instance can run several strategies on
// the same frozen baseline, which is how the benchmark harness compares
// AH / MH / SA on identical instances.
//
// Strategies resolve through the pluggable optimizer API (core/optimizer.h):
// run("SA") looks the name up in StrategyRegistry::builtin() and executes
// the optimizer with this designer's options and a shared RunContext (one
// EvalContextPool lease across successive runs).
#pragma once

#include <memory>
#include <string>

#include "core/evaluator.h"
#include "core/future_profile.h"
#include "core/initial_mapping.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "sched/schedule.h"

namespace ides {

class SystemModel;

struct DesignResult {
  /// Registry name of the strategy that produced this result.
  std::string strategyName = "AH";
  bool feasible = false;
  MappingSolution mapping;
  /// Schedule of the current application only (frozen part excluded).
  Schedule schedule;
  DesignMetrics metrics;
  /// Objective C of the final solution.
  double objective = 0.0;
  /// Wall-clock strategy runtime in seconds (includes IM).
  double seconds = 0.0;
  std::size_t evaluations = 0;
  /// True when a StopToken ended the run before its configured budget.
  bool stopped = false;
};

/// Not thread-safe: the designer's runs share one RunContext (and its
/// EvalContextPool lease), so concurrent run() calls on one instance race
/// on the pooled evaluation scratch. Run strategies sequentially — results
/// are identical either way — or give each thread its own designer; for
/// shared-evaluator concurrency use Optimizer::run directly with one
/// RunContext per thread (the evaluator itself is const-safe).
class IncrementalDesigner {
 public:
  /// Freezes the existing applications immediately; throws
  /// std::runtime_error if they cannot be feasibly scheduled and
  /// std::invalid_argument if `options` fail validation.
  IncrementalDesigner(const SystemModel& sys, FutureProfile profile,
                      DesignerOptions options = {});

  /// Run a registered strategy by name from a fresh IM start; throws
  /// std::invalid_argument for an unknown name (listing the valid set).
  DesignResult run(const std::string& strategyName);
  /// Same, with caller-provided cross-cutting services (stop token,
  /// progress sink, pool lease).
  DesignResult run(const std::string& strategyName, RunContext& context);
  /// Run a caller-constructed optimizer (e.g. one with bespoke typed
  /// options that differ from this designer's DesignerOptions).
  DesignResult run(const Optimizer& optimizer, RunContext& context);
  /// Warm-started runs (lifecycle replay): improvement starts from
  /// `warmStart` when it is non-null and still evaluates feasibly; an
  /// infeasible or null seed falls back to the fresh-IM path, so the same
  /// call site serves both policies. See Optimizer::run's warm overload.
  DesignResult run(const std::string& strategyName, RunContext& context,
                   const MappingSolution* warmStart);
  DesignResult run(const Optimizer& optimizer, RunContext& context,
                   const MappingSolution* warmStart);

  [[nodiscard]] const SystemModel& system() const { return *sys_; }
  [[nodiscard]] const DesignerOptions& options() const { return options_; }
  [[nodiscard]] const SolutionEvaluator& evaluator() const {
    return *evaluator_;
  }
  /// Frozen schedule of the existing applications.
  [[nodiscard]] const Schedule& frozenSchedule() const {
    return frozen_.schedule;
  }
  [[nodiscard]] const FrozenBase& frozenBase() const { return frozen_; }

  /// Platform state with a result committed; input for future-fit checks.
  [[nodiscard]] PlatformState stateWith(const DesignResult& result) const {
    return evaluator_->stateWith(result.mapping);
  }

 private:
  const SystemModel* sys_;
  DesignerOptions options_;
  FrozenBase frozen_;
  std::unique_ptr<SolutionEvaluator> evaluator_;
  /// Shared services across this designer's runs: one EvalContextPool
  /// lease serves the whole AH/MH/SA comparison on this instance.
  RunContext context_;
};

}  // namespace ides
