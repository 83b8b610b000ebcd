#include "core/incremental_designer.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "model/system_model.h"

namespace ides {

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

RunReport IncrementalDesigner::run(const std::string& strategyName) {
  return run(strategyName, context_);
}

RunReport IncrementalDesigner::run(const std::string& strategyName,
                                   RunContext& context) {
  return runStrategy(strategyName, options_, *evaluator_, context);
}

ValidationReport IncrementalDesigner::validate(const RunReport& result) const {
  Schedule all;
  all.merge(frozen_.schedule);
  all.merge(result.schedule);
  std::vector<GraphId> graphs = sys_->graphsOfKind(AppKind::Existing);
  const std::vector<GraphId> current = sys_->graphsOfKind(AppKind::Current);
  graphs.insert(graphs.end(), current.begin(), current.end());
  return validateSchedule(*sys_, all, graphs);
}

}  // namespace ides
