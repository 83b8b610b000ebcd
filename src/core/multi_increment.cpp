#include "core/multi_increment.h"

#include <memory>

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

  const std::unique_ptr<Optimizer> optimizer =
      StrategyRegistry::builtin().create(options.strategy, options.designer);
  MultiIncrementResult result{{}, 0, base.state};

  for (const ApplicationId appId : increments) {
    if (options.stop != nullptr && options.stop->stopRequested()) {
      result.stopped = true;
      break;
    }
    const Application& app = sys.application(appId);
    IncrementStep step;
    step.application = appId;

    // IM for this increment on the platform as it stands.
    PlatformState trial = result.finalState;
    ScheduleRequest req;
    req.graphs = app.graphs;
    req.chooseNodes = true;
    const ScheduleOutcome im = scheduleGraphs(sys, req, trial);

    if (im.feasible) {
      // Optimize the increment with the chosen policy, then commit.
      const SolutionEvaluator evaluator(sys, result.finalState, profile,
                                        options.designer.weights, app.graphs);
      RunContext context;
      context.stop = options.stop;
      const MappingSolution solution =
          optimizer->run(evaluator, context, &im.mapping).mapping;
      // A token that fired mid-optimization left `solution` at whatever
      // quality the cut-short search reached; committing it would silently
      // bias the lifetime result, so discard the increment.
      if (options.stop != nullptr && options.stop->stopRequested()) {
        result.stopped = true;
        break;
      }
      // Commit the optimized mapping.
      PlatformState committed = result.finalState;
      ScheduleRequest commitReq;
      commitReq.graphs = app.graphs;
      commitReq.mapping = &solution;
      const ScheduleOutcome outcome =
          scheduleGraphs(sys, commitReq, committed);
      if (outcome.feasible) {
        step.accepted = true;
        result.finalState = std::move(committed);
        result.accepted += 1;
        const SlackInfo slack = extractSlack(result.finalState);
        step.metrics = computeMetrics(slack, profile);
        step.objective =
            objectiveValue(step.metrics, profile, options.designer.weights);
        IDES_LOG_AT(LogLevel::Debug)
            << "increment " << app.name << " accepted, C=" << step.objective;
      }
    }

    result.steps.push_back(step);
    if (!step.accepted && options.stopAtFirstReject) break;
  }
  return result;
}

}  // namespace ides
