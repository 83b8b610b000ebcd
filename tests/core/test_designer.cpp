#include "core/incremental_designer.h"

#include <gtest/gtest.h>

#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class DesignerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 21));
    DesignerOptions opts;
    opts.sa.iterations = 1200;  // keep the test fast
    designer_ = std::make_unique<IncrementalDesigner>(suite_->system,
                                                      suite_->profile, opts);
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<IncrementalDesigner> designer_;
};

TEST_F(DesignerTest, FreezesExistingApplicationsOnConstruction) {
  const std::size_t existing =
      suite_->system.processesOfKind(AppKind::Existing).size();
  // Some graphs may run several instances per hyperperiod.
  EXPECT_GE(designer_->frozenSchedule().processEntryCount(), existing);
  EXPECT_TRUE(designer_->frozenBase().feasible);
}

TEST_F(DesignerTest, AllStrategiesProduceFeasibleDesigns) {
  for (const char* s : {"AH", "MH", "SA"}) {
    const RunReport r = designer_->run(s);
    EXPECT_TRUE(r.feasible) << s;
    EXPECT_GT(r.schedule.processEntryCount(), 0u) << s;
    EXPECT_GE(r.seconds, 0.0);
    EXPECT_GE(r.evaluations, 1u);
    EXPECT_LT(r.objective, SolutionEvaluator::kMissPenalty) << s;
  }
}

TEST_F(DesignerTest, OptimizingStrategiesBeatAdHoc) {
  const RunReport ah = designer_->run("AH");
  const RunReport mh = designer_->run("MH");
  const RunReport sa = designer_->run("SA");
  EXPECT_LE(mh.objective, ah.objective + 1e-9);
  EXPECT_LE(sa.objective, ah.objective + 1e-9);
}

TEST_F(DesignerTest, EvaluationCountsReflectSearchEffort) {
  const RunReport ah = designer_->run("AH");
  const RunReport mh = designer_->run("MH");
  const RunReport sa = designer_->run("SA");
  EXPECT_LE(ah.evaluations, 3u);
  EXPECT_GT(mh.evaluations, ah.evaluations);
  EXPECT_GT(sa.evaluations, 1000u);
}

TEST_F(DesignerTest, RunsAreRepeatable) {
  const RunReport a = designer_->run("MH");
  const RunReport b = designer_->run("MH");
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.mapping, b.mapping);
}

TEST_F(DesignerTest, StateWithContainsFrozenPlusCurrent) {
  const RunReport ah = designer_->run("AH");
  const PlatformState after = designer_->stateWith(ah);
  EXPECT_LT(after.totalNodeSlack(),
            designer_->frozenBase().state.totalNodeSlack());
}

TEST(DesignerErrors, ThrowsWhenExistingBaseCannotBeFrozen) {
  SystemModel sys(makeUniformArchitecture(1, 10, 1));
  const ApplicationId e = sys.addApplication("e", AppKind::Existing);
  const GraphId ge = sys.addGraph(e, 100);
  sys.addProcess(ge, "E0", {60});
  sys.addProcess(ge, "E1", {60});  // 120 ticks of load in a 100-tick period
  const ApplicationId c = sys.addApplication("c", AppKind::Current);
  const GraphId gc = sys.addGraph(c, 100);
  sys.addProcess(gc, "C", {10});
  sys.finalize();

  FutureProfile profile;
  profile.tmin = 100;
  profile.tneed = 10;
  profile.bneedBytes = 4;
  profile.wcetDistribution = DiscreteDistribution({{10, 1.0}});
  profile.messageSizeDistribution = DiscreteDistribution({{4, 1.0}});
  EXPECT_THROW(IncrementalDesigner(sys, profile), std::runtime_error);
}

TEST(DesignerErrors, StrategyNames) {
  // Results carry the registry name they were run under; a name outside
  // the registry is rejected.
  const Suite suite = buildSuite(ides::testing::smallSuiteConfig(), 21);
  DesignerOptions opts;
  opts.sa.iterations = 50;
  IncrementalDesigner designer(suite.system, suite.profile, opts);
  for (const char* name : {"AH", "MH", "SA"}) {
    EXPECT_EQ(designer.run(name).strategy, name);
  }
  EXPECT_THROW(designer.run("SimulatedAnnealing"), std::invalid_argument);
}

}  // namespace
}  // namespace ides
