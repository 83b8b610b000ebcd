// scheduleGraphs against the ready-heap reference loop
// (reference_list_scheduler.h) on generated suites: the freeze of the
// existing applications, the Initial Mapping, mapping mode under perturbed
// nodes, priorities and hints, and HCP with partial pins. Hints reach up to
// the horizon, so unplaced outcomes are covered too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "model/graph_algos.h"
#include "reference_list_scheduler.h"
#include "sched/list_scheduler.h"
#include "test_helpers.h"
#include "tgen/benchmark_suite.h"
#include "util/rng.h"

namespace ides {
namespace {

struct Shape {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t existing;
  std::size_t current;
};

std::string shapeName(const ::testing::TestParamInfo<Shape>& info) {
  const Shape& s = info.param;
  return "seed" + std::to_string(s.seed) + "_n" + std::to_string(s.nodes) +
         "_e" + std::to_string(s.existing) + "_c" + std::to_string(s.current);
}

/// Outcomes seen per mode ([0] mapping mode, [1] HCP).
struct Tally {
  int placed[2] = {0, 0};
  int unplaced[2] = {0, 0};
};

void expectSameState(const PlatformState& got, const PlatformState& ref) {
  for (std::size_t n = 0; n < got.nodeCount(); ++n) {
    const NodeId node{static_cast<int>(n)};
    EXPECT_EQ(got.nodeBusy(node), ref.nodeBusy(node)) << "node " << n;
  }
  for (std::size_t slot = 0; slot < got.bus().slotCount(); ++slot) {
    for (std::int64_t r = 0; r < got.roundCount(); ++r) {
      ASSERT_EQ(got.slotUsedTicks(slot, r), ref.slotUsedTicks(slot, r))
          << "slot " << slot << " round " << r;
    }
  }
}

/// Schedules `req` with both loops on copies of `state`; placed outcomes
/// must match entry for entry (chosen mapping and occupancy included),
/// unplaced ones on flags and tallies. Advances `state` to the production
/// result and returns the production outcome.
ScheduleOutcome diffOnce(const SystemModel& sys, const ScheduleRequest& req,
                         PlatformState& state, Tally& tally) {
  PlatformState refState = state;
  const ScheduleOutcome ref =
      ides::testing::referenceScheduleGraphs(sys, req, refState);
  ScheduleOutcome got = scheduleGraphs(sys, req, state);
  EXPECT_EQ(got.placed, ref.placed);
  EXPECT_EQ(got.feasible, ref.feasible);
  EXPECT_EQ(got.deadlineMisses, ref.deadlineMisses);
  EXPECT_EQ(got.totalLateness, ref.totalLateness);
  const int mode = req.chooseNodes ? 1 : 0;
  if (got.placed && ref.placed) {
    ++tally.placed[mode];
    EXPECT_EQ(got.schedule.processes(), ref.schedule.processes());
    EXPECT_EQ(got.schedule.messages(), ref.schedule.messages());
    EXPECT_TRUE(got.mapping == ref.mapping);
    expectSameState(state, refState);
  } else {
    ++tally.unplaced[mode];
  }
  return got;
}

class ListSchedulerReference : public ::testing::TestWithParam<Shape> {};

TEST_P(ListSchedulerReference, MatchesReadyHeapLoop) {
  const Shape shape = GetParam();
  SuiteConfig cfg =
      ides::testing::smallSuiteConfig(shape.existing, shape.current);
  cfg.nodeCount = shape.nodes;
  const Suite suite = buildSuite(cfg, shape.seed);
  const SystemModel& sys = suite.system;
  Rng rng(shape.seed * 7919 + 1);
  Tally tally;

  // The freeze: HCP per existing application on the growing base.
  PlatformState base(sys.architecture(), sys.hyperperiod());
  for (const ApplicationId appId : sys.applicationsOfKind(AppKind::Existing)) {
    ScheduleRequest req;
    req.graphs = sys.application(appId).graphs;
    req.chooseNodes = true;
    ASSERT_TRUE(diffOnce(sys, req, base, tally).feasible);
  }

  // The Initial Mapping on the frozen base.
  const std::vector<GraphId> current = sys.graphsOfKind(AppKind::Current);
  ScheduleRequest imReq;
  imReq.graphs = current;
  imReq.chooseNodes = true;
  PlatformState imState = base;
  const ScheduleOutcome im = diffOnce(sys, imReq, imState, tally);
  ASSERT_TRUE(im.placed);

  std::vector<std::vector<double>> criticalPath;
  for (const GraphId g : current) {
    criticalPath.push_back(criticalPathPriorities(sys, g));
  }
  for (int trial = 0; trial < 48; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Every third trial lets hints reach the horizon, which drives
    // placements off its end; the others keep them within a period.
    const bool wide = trial % 3 == 2;
    const bool hcp = trial % 2 == 1;
    ScheduleRequest req;
    req.graphs = current;
    std::reverse(req.graphs.begin() + static_cast<std::ptrdiff_t>(trial % 2),
                 req.graphs.end());
    // Priorities: none (critical path inside), the precomputed critical
    // path, or coarse random values that force the tie-breakers.
    std::vector<std::vector<double>> priorities;
    for (const GraphId g : req.graphs) {
      const std::size_t gi = static_cast<std::size_t>(
          std::find(current.begin(), current.end(), g) - current.begin());
      std::vector<double> p = criticalPath[gi];
      if (trial % 4 == 3) {
        for (double& v : p) v = static_cast<double>(rng.uniformInt(0, 2));
      }
      priorities.push_back(std::move(p));
    }
    if (trial % 4 != 0) req.priorities = &priorities;

    MappingSolution mapping = hcp ? MappingSolution(sys) : im.mapping;
    for (const GraphId g : current) {
      const ProcessGraph& graph = sys.graph(g);
      const Time range = wide ? sys.hyperperiod() : graph.period - 1;
      for (const ProcessId p : graph.processes) {
        const std::vector<NodeId> allowed = sys.process(p).allowedNodes();
        // HCP pins about a third of the processes; mapping mode re-maps
        // about a third.
        if (rng.chance(1.0 / 3.0)) mapping.setNode(p, rng.pick(allowed));
        if (rng.chance(0.25)) {
          mapping.setStartHint(p, rng.uniformInt(0, range));
        }
      }
      for (const MessageId m : graph.messages) {
        if (rng.chance(0.25)) {
          mapping.setMessageHint(m, rng.uniformInt(0, range));
        }
      }
    }
    req.mapping = &mapping;
    req.chooseNodes = hcp;
    PlatformState state = base;
    diffOnce(sys, req, state, tally);
  }
  for (int mode = 0; mode < 2; ++mode) {
    EXPECT_GT(tally.placed[mode], 0) << "mode " << mode;
    EXPECT_GT(tally.unplaced[mode], 0) << "mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedSuites, ListSchedulerReference,
    ::testing::Values(Shape{1, 3, 20, 10}, Shape{2, 4, 60, 24},
                      Shape{3, 4, 80, 40}, Shape{4, 5, 40, 30},
                      Shape{5, 6, 120, 48}, Shape{6, 3, 30, 20}),
    shapeName);

}  // namespace
}  // namespace ides
