// IncrementalDesigner: the library facade.
//
// Wires the whole flow of the paper together: freeze the existing
// applications, construct the initial mapping, then improve it with the
// chosen strategy and report the design metrics, the objective C, and the
// wall-clock runtime. One designer instance can run several strategies on
// the same frozen baseline, which is how the benchmark harness compares
// AH / MH / SA on identical instances.
//
// Strategies run through the one entry point (core/optimizer.h):
// run("SA") is runStrategy("SA", options(), evaluator(), context) with this
// designer's options and a shared RunContext (one evaluation context across
// successive runs). The result is runStrategy's own RunReport.
#pragma once

#include <memory>
#include <string>

#include "core/evaluator.h"
#include "core/future_profile.h"
#include "core/initial_mapping.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "sched/schedule.h"
#include "sched/validate.h"

namespace ides {

class SystemModel;

/// Not thread-safe: the designer's runs share one RunContext (and its
/// evaluation context), so concurrent run() calls on one instance race on
/// the shared evaluation scratch. Run strategies sequentially — results
/// are identical either way — or give each thread its own designer; for
/// shared-evaluator concurrency call runStrategy directly with one
/// RunContext per thread (the evaluator itself is const-safe).
class IncrementalDesigner {
 public:
  /// Freezes the existing applications immediately; throws
  /// std::runtime_error if they cannot be feasibly scheduled and
  /// std::invalid_argument if `options` fail validation.
  IncrementalDesigner(const SystemModel& sys, FutureProfile profile,
                      DesignerOptions options = {});

  /// Run a strategy by name from a fresh IM start; throws
  /// std::invalid_argument for an unknown name (listing the valid set).
  RunReport run(const std::string& strategyName);
  /// Same, with caller-provided cross-cutting services (stop token,
  /// progress sink, evaluation context). Warm starts go through
  /// runStrategy on evaluator() directly.
  RunReport run(const std::string& strategyName, RunContext& context);

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

  /// validateSchedule over the frozen schedule of the existing applications
  /// merged with `result`'s schedule of the current one, on the existing
  /// and current graphs.
  [[nodiscard]] ValidationReport validate(const RunReport& result) const;

  /// Platform state with a result committed; input for future-fit checks.
  [[nodiscard]] PlatformState stateWith(const RunReport& result) const {
    return evaluator_->stateWith(result.mapping);
  }

 private:
  const SystemModel* sys_;
  DesignerOptions options_;
  FrozenBase frozen_;
  std::unique_ptr<SolutionEvaluator> evaluator_;
  /// Shared services across this designer's runs: one evaluation context
  /// serves the whole AH/MH/SA comparison on this instance.
  RunContext context_;
};

}  // namespace ides
