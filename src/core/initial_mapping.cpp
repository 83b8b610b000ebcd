#include "core/initial_mapping.h"

#include <utility>

#include "model/system_model.h"

namespace ides {

FrozenBase freezeExistingApplications(const SystemModel& sys) {
  FrozenBase base{PlatformState(sys.architecture(), sys.hyperperiod()),
                  Schedule{}, MappingSolution(sys), true};
  for (ApplicationId appId : sys.applicationsOfKind(AppKind::Existing)) {
    const Application& app = sys.application(appId);
    ScheduleRequest req;
    req.graphs = app.graphs;
    req.chooseNodes = true;
    ScheduleOutcome outcome = scheduleGraphs(sys, req, base.state);
    if (!outcome.feasible) {
      base.feasible = false;
      return base;
    }
    base.schedule.merge(outcome.schedule);
    // Record the nodes so later message scheduling (and analyses) can see
    // where existing processes live.
    for (const ScheduledProcess& sp : outcome.schedule.processes()) {
      base.mapping.setNode(sp.pid, sp.node);
    }
  }
  return base;
}

ScheduleOutcome initialMapping(const SystemModel& sys, PlatformState& state) {
  return initialMapping(sys, sys.graphsOfKind(AppKind::Current), state);
}

ScheduleOutcome initialMapping(const SystemModel& sys,
                               std::vector<GraphId> graphs,
                               PlatformState& state) {
  ScheduleRequest req;
  req.graphs = std::move(graphs);
  req.chooseNodes = true;
  return scheduleGraphs(sys, req, state);
}

}  // namespace ides
