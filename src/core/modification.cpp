#include "core/modification.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "core/optimizer.h"
#include "model/system_model.h"
#include "util/log.h"

namespace ides {

namespace {

struct SubsetEval {
  bool feasible = false;
  double objective = 0.0;
  DesignMetrics metrics;
  MappingSolution solution;
  Schedule schedule;
  std::size_t evaluations = 0;
};

/// Design with the given subset of existing applications unfrozen: freeze
/// the remainder (in id order, as they were delivered), then run MH from
/// the Initial Mapping of current + subset graphs.
SubsetEval evaluateSubset(const SystemModel& sys, const FutureProfile& profile,
                          const std::unordered_set<ApplicationId>& subset,
                          const ModificationOptions& options) {
  SubsetEval out;

  // Frozen base: existing applications not in the subset.
  PlatformState state(sys.architecture(), sys.hyperperiod());
  for (ApplicationId appId : sys.applicationsOfKind(AppKind::Existing)) {
    if (subset.contains(appId)) continue;
    ScheduleRequest req;
    req.graphs = sys.application(appId).graphs;
    req.chooseNodes = true;
    const ScheduleOutcome frozen = scheduleGraphs(sys, req, state);
    out.evaluations += 1;
    if (!frozen.feasible) return out;  // this freeze order fails: infeasible
  }

  // Movable set: the unfrozen existing graphs first (they were there
  // before), then the current application.
  std::vector<GraphId> movable;
  for (ApplicationId appId : sys.applicationsOfKind(AppKind::Existing)) {
    if (!subset.contains(appId)) continue;
    const auto& graphs = sys.application(appId).graphs;
    movable.insert(movable.end(), graphs.begin(), graphs.end());
  }
  const auto current = sys.graphsOfKind(AppKind::Current);
  movable.insert(movable.end(), current.begin(), current.end());

  const SolutionEvaluator evaluator(sys, std::move(state), profile,
                                    options.weights, std::move(movable));
  DesignerOptions designer;
  designer.weights = options.weights;
  designer.mh = options.mh;
  RunContext context;
  RunReport report = runStrategy("MH", designer, evaluator, context);
  out.evaluations += report.evaluations;
  if (!report.feasible) return out;
  out.feasible = true;
  out.objective = report.objective;
  out.metrics = report.metrics;
  out.solution = std::move(report.mapping);
  out.schedule = std::move(report.schedule);
  return out;
}

}  // namespace

ModificationResult designWithModifications(
    const SystemModel& sys, const FutureProfile& profile,
    const std::vector<std::int64_t>& modificationCost,
    const ModificationOptions& options) {
  if (modificationCost.size() != sys.applications().size()) {
    throw std::invalid_argument(
        "designWithModifications: one cost entry per application required");
  }

  ModificationResult result;
  std::unordered_set<ApplicationId> omega;

  SubsetEval best = evaluateSubset(sys, profile, omega, options);
  result.evaluations += best.evaluations;
  double bestTotal =
      best.feasible ? best.objective : SolutionEvaluator::kUnplacedPenalty;
  std::int64_t bestCost = 0;

  const std::vector<ApplicationId> existing =
      sys.applicationsOfKind(AppKind::Existing);

  while (omega.size() < options.maxModifiedApps) {
    bool improved = false;
    ApplicationId bestApp;
    SubsetEval bestCandidate;
    std::int64_t bestCandidateCost = 0;

    for (ApplicationId app : existing) {
      if (omega.contains(app)) continue;
      const std::int64_t cost = modificationCost[app.index()];
      if (cost == kCannotModify) continue;

      std::unordered_set<ApplicationId> trial = omega;
      trial.insert(app);
      SubsetEval candidate = evaluateSubset(sys, profile, trial, options);
      result.evaluations += candidate.evaluations;
      if (!candidate.feasible) continue;
      const std::int64_t trialCost = bestCost + cost;
      const double total =
          candidate.objective +
          options.costWeight * static_cast<double>(trialCost);
      if (total < bestTotal - 1e-9) {
        bestTotal = total;
        bestApp = app;
        bestCandidate = std::move(candidate);
        bestCandidateCost = trialCost;
        improved = true;
      }
    }

    if (!improved) break;
    omega.insert(bestApp);
    result.modifiedApps.push_back(bestApp);
    best = std::move(bestCandidate);
    bestCost = bestCandidateCost;
    IDES_LOG_AT(LogLevel::Debug)
        << "modification: unfreeze app " << bestApp.value << ", total now "
        << bestTotal;
  }

  result.feasible = best.feasible;
  result.modificationCost = bestCost;
  result.objective = best.feasible ? best.objective : 0.0;
  result.totalCost = bestTotal;
  result.metrics = best.metrics;
  result.solution = std::move(best.solution);
  result.schedule = std::move(best.schedule);
  return result;
}

}  // namespace ides
