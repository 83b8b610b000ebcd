#include "core/multi_increment.h"

#include <stdexcept>

#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "util/log.h"

namespace ides {

MultiIncrementResult runIncrementSequence(
    const SystemModel& sys, const FutureProfile& profile,
    const std::vector<ApplicationId>& increments,
    const MultiIncrementOptions& options) {
  const FrozenBase base = freezeExistingApplications(sys);
  if (!base.feasible) {
    throw std::runtime_error(
        "runIncrementSequence: existing base not schedulable");
  }
  requireStrategy(options.strategy);
  validateOptions(options.designer);
  MultiIncrementResult result{{}, 0, base.state};

  for (const ApplicationId appId : increments) {
    if (options.stop != nullptr && options.stop->stopRequested()) {
      result.stopped = true;
      break;
    }
    const Application& app = sys.application(appId);
    IncrementStep step;
    step.application = appId;

    // Design the increment on the platform as it stands: the strategy's
    // cold start is the increment's IM on top of the frozen state.
    const SolutionEvaluator evaluator(sys, result.finalState, profile,
                                      options.designer.weights, app.graphs);
    RunContext context;
    context.stop = options.stop;
    const RunReport report =
        runStrategy(options.strategy, options.designer, evaluator, context);
    // A token that fired mid-optimization left the report at whatever
    // quality the cut-short search reached; committing it would silently
    // bias the lifetime result, so discard the increment.
    if (options.stop != nullptr && options.stop->stopRequested()) {
      result.stopped = true;
      break;
    }
    if (report.feasible) {
      // Freeze exactly the schedule the strategy scored.
      step.accepted = true;
      step.metrics = report.metrics;
      step.objective = report.objective;
      result.finalState = evaluator.stateWith(report.mapping);
      result.accepted += 1;
      IDES_LOG_AT(LogLevel::Debug)
          << "increment " << app.name << " accepted, C=" << step.objective;
    }

    result.steps.push_back(step);
    if (!step.accepted && options.stopAtFirstReject) break;
  }
  return result;
}

}  // namespace ides
