#include "core/incremental_designer.h"

#include <stdexcept>
#include <utility>

#include "model/system_model.h"

namespace ides {

namespace {

DesignResult toDesignResult(RunReport&& report) {
  DesignResult result;
  result.strategyName = report.strategy;
  result.feasible = report.feasible;
  result.mapping = std::move(report.mapping);
  result.schedule = std::move(report.schedule);
  result.metrics = report.metrics;
  result.objective = report.objective;
  result.seconds = report.seconds;
  result.evaluations = report.evaluations;
  result.stopped = report.stopped;
  return result;
}

}  // namespace

IncrementalDesigner::IncrementalDesigner(const SystemModel& sys,
                                         FutureProfile profile,
                                         DesignerOptions options)
    : sys_(&sys),
      options_(options),
      frozen_(freezeExistingApplications(sys)) {
  validateOptions(options_);
  if (!frozen_.feasible) {
    throw std::runtime_error(
        "IncrementalDesigner: existing applications are not schedulable");
  }
  evaluator_ = std::make_unique<SolutionEvaluator>(
      sys, frozen_.state, std::move(profile), options_.weights);
}

DesignResult IncrementalDesigner::run(const std::string& strategyName) {
  return run(strategyName, context_);
}

DesignResult IncrementalDesigner::run(const std::string& strategyName,
                                      RunContext& context) {
  const std::unique_ptr<Optimizer> optimizer =
      StrategyRegistry::builtin().create(strategyName, options_);
  return run(*optimizer, context);
}

DesignResult IncrementalDesigner::run(const Optimizer& optimizer,
                                      RunContext& context) {
  return toDesignResult(optimizer.run(*evaluator_, context));
}

DesignResult IncrementalDesigner::run(const std::string& strategyName,
                                      RunContext& context,
                                      const MappingSolution* warmStart) {
  const std::unique_ptr<Optimizer> optimizer =
      StrategyRegistry::builtin().create(strategyName, options_);
  return run(*optimizer, context, warmStart);
}

DesignResult IncrementalDesigner::run(const Optimizer& optimizer,
                                      RunContext& context,
                                      const MappingSolution* warmStart) {
  return toDesignResult(optimizer.run(*evaluator_, context, warmStart));
}

}  // namespace ides
