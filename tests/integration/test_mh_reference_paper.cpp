// runMappingHeuristic against the reference MH loop at paper scale: the
// design job's 160-process instance under the same option shapes as the
// generated-suite diff (core/test_mh_reference.cpp). At this size the
// 20/10/4 shape runs about 17 000 evaluations per side, which is why the
// diff lives with the slow suites.
#include <gtest/gtest.h>

#include "core/mh_reference_diff.h"
#include "tgen/benchmark_suite.h"

namespace ides {
namespace {

TEST(MhReferencePaper, MatchesOn160ProcessInstance) {
  // The design job's generator configuration (10 nodes, 400 existing
  // processes, paper tneed), seed 1, from the Initial Mapping only: the
  // generated suites cover the late-message start.
  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = 160;
  cfg.tneedOverride = 12000;
  EXPECT_GT(ides::testing::diffOnSuite(buildSuite(cfg, 1), 0), 0);
}

}  // namespace
}  // namespace ides
