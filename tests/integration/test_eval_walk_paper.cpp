// EvalContext's change-propagation walk against the full pass at paper
// scale: the design job's 320-process instance (10 nodes, 400 existing
// processes, paper tneed, generator seed 1), 2000 adversarial moves from
// the Initial Mapping (the move mix of core/walk_fuzz.h). Each move runs
// the full pass and, when feasible, a fresh context's walk, which is why
// the check lives with the slow suites. The current graphs' deadlines equal
// their periods here, so a late last instance runs out of horizon and the
// late trials come out unplaced.
#include <gtest/gtest.h>

#include "core/initial_mapping.h"
#include "core/walk_fuzz.h"
#include "tgen/benchmark_suite.h"

namespace ides {
namespace {

TEST(EvalWalkPaper, MatchesFullPassOn320ProcessInstance) {
  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = 320;
  cfg.tneedOverride = 12000;
  const Suite suite = buildSuite(cfg, 1);
  const FrozenBase frozen = freezeExistingApplications(suite.system);
  ASSERT_TRUE(frozen.feasible);
  const SolutionEvaluator ev(suite.system, frozen.state, suite.profile,
                             MetricWeights{});
  PlatformState state = frozen.state;
  const ScheduleOutcome im = initialMapping(suite.system, state);
  ASSERT_TRUE(im.feasible);
  constexpr int kMoves = 2000;
  const ides::testing::WalkFuzzStats stats =
      ides::testing::fuzzWalk(ev, im.mapping, kMoves, 1);
  ides::testing::expectWalkCoverage(stats, kMoves);
}

}  // namespace
}  // namespace ides
