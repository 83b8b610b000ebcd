// Modification-aware design (the CODES 2001 extension).
#include "core/modification.h"

#include <gtest/gtest.h>

#include "core/incremental_designer.h"
#include "model/system_model.h"
#include "sched/validate.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

using ides::testing::wcets;

std::vector<std::int64_t> uniformCosts(const SystemModel& sys,
                                       std::int64_t cost) {
  return std::vector<std::int64_t>(sys.applications().size(), cost);
}

FutureProfile tinyProfile(Time tmin, Time tneed, std::int64_t bneed) {
  FutureProfile p;
  p.tmin = tmin;
  p.tneed = tneed;
  p.bneedBytes = bneed;
  p.wcetDistribution = DiscreteDistribution({{10, 0.5}, {20, 0.5}});
  p.messageSizeDistribution = DiscreteDistribution({{2, 0.5}, {4, 0.5}});
  return p;
}

TEST(Modification, CostVectorArityIsChecked) {
  ides::testing::ScenarioIds ids;
  const SystemModel sys = ides::testing::makeIncrementalScenario(&ids);
  EXPECT_THROW(designWithModifications(sys, tinyProfile(100, 30, 8), {1, 2, 3}),
               std::invalid_argument);
}

TEST(Modification, NoModificationNeededLeavesOmegaEmpty) {
  // Lightly loaded scenario: the frozen design is already near-optimal and
  // any modification costs more than it gains.
  ides::testing::ScenarioIds ids;
  const SystemModel sys = ides::testing::makeIncrementalScenario(&ids);
  ModificationOptions opts;
  opts.costWeight = 1000.0;  // modifications are prohibitively expensive
  const ModificationResult r = designWithModifications(
      sys, tinyProfile(100, 30, 8), uniformCosts(sys, 5), opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.modifiedApps.empty());
  EXPECT_EQ(r.modificationCost, 0);
}

TEST(Modification, CannotModifyIsRespected) {
  ides::testing::ScenarioIds ids;
  const SystemModel sys = ides::testing::makeIncrementalScenario(&ids);
  ModificationOptions opts;
  opts.costWeight = 0.0;  // modifications are free -> always tempting
  std::vector<std::int64_t> costs = uniformCosts(sys, kCannotModify);
  const ModificationResult r = designWithModifications(
      sys, tinyProfile(100, 30, 8), costs, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.modifiedApps.empty());  // nothing may be touched
}

class ModificationSuiteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Loaded instance where redistributing the frozen base pays off.
    SuiteConfig cfg = ides::testing::smallSuiteConfig();
    cfg.offsetPhases = 1;       // existing base deliberately badly phased
    cfg.existingGraphSize = 30; // two existing applications of 30 processes
    suite_ = std::make_unique<Suite>(buildSuite(cfg, 31));
  }
  std::unique_ptr<Suite> suite_;
};

TEST_F(ModificationSuiteTest, FreeModificationsImproveTheObjective) {
  const SystemModel& sys = suite_->system;
  // Reference: untouchable existing base.
  IncrementalDesigner designer(sys, suite_->profile);
  const RunReport mh = designer.run("MH");
  ASSERT_TRUE(mh.feasible);

  ModificationOptions opts;
  opts.costWeight = 0.0;
  opts.maxModifiedApps = 2;
  const ModificationResult r = designWithModifications(
      sys, suite_->profile, uniformCosts(sys, 1), opts);
  ASSERT_TRUE(r.feasible);
  // With a badly phased frozen base, unfreezing something must help.
  EXPECT_FALSE(r.modifiedApps.empty());
  EXPECT_LT(r.objective, mh.objective);
  EXPECT_LE(static_cast<std::size_t>(r.modificationCost),
            opts.maxModifiedApps);
}

TEST_F(ModificationSuiteTest, ResultScheduleIsValid) {
  const SystemModel& sys = suite_->system;
  ModificationOptions opts;
  opts.costWeight = 0.0;
  opts.maxModifiedApps = 1;
  const ModificationResult r = designWithModifications(
      sys, suite_->profile, uniformCosts(sys, 1), opts);
  ASSERT_TRUE(r.feasible);

  // Rebuild the full schedule: frozen remainder + the result's movable set.
  PlatformState state(sys.architecture(), sys.hyperperiod());
  Schedule full;
  for (ApplicationId app : sys.applicationsOfKind(AppKind::Existing)) {
    if (std::find(r.modifiedApps.begin(), r.modifiedApps.end(), app) !=
        r.modifiedApps.end()) {
      continue;
    }
    ScheduleRequest req;
    req.graphs = sys.application(app).graphs;
    req.chooseNodes = true;
    const ScheduleOutcome out = scheduleGraphs(sys, req, state);
    ASSERT_TRUE(out.feasible);
    full.merge(out.schedule);
  }
  full.merge(r.schedule);

  std::vector<GraphId> allGraphs = sys.graphsOfKind(AppKind::Existing);
  const auto current = sys.graphsOfKind(AppKind::Current);
  allGraphs.insert(allGraphs.end(), current.begin(), current.end());
  const ValidationReport report = validateSchedule(sys, full, allGraphs);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(ModificationSuiteTest, CostWeightControlsTheTradeOff) {
  const SystemModel& sys = suite_->system;
  ModificationOptions cheap;
  cheap.costWeight = 0.0;
  ModificationOptions expensive;
  expensive.costWeight = 1e6;
  const ModificationResult rCheap = designWithModifications(
      sys, suite_->profile, uniformCosts(sys, 1), cheap);
  const ModificationResult rExpensive = designWithModifications(
      sys, suite_->profile, uniformCosts(sys, 1), expensive);
  ASSERT_TRUE(rCheap.feasible);
  ASSERT_TRUE(rExpensive.feasible);
  EXPECT_GE(rCheap.modifiedApps.size(), rExpensive.modifiedApps.size());
  EXPECT_TRUE(rExpensive.modifiedApps.empty());
}

TEST_F(ModificationSuiteTest, GreedyPrefersCheaperApplications) {
  const SystemModel& sys = suite_->system;
  // Make one application dramatically cheaper to modify than the rest; if
  // the greedy unfreezes exactly one, it should pick a cheap one unless an
  // expensive one is much more valuable.
  std::vector<std::int64_t> costs = uniformCosts(sys, 1000);
  const auto existing = sys.applicationsOfKind(AppKind::Existing);
  ASSERT_GE(existing.size(), 2u);
  costs[existing[0].index()] = 1;
  ModificationOptions opts;
  opts.costWeight = 0.05;  // cost matters, objective dominates
  opts.maxModifiedApps = 1;
  const ModificationResult r =
      designWithModifications(sys, suite_->profile, costs, opts);
  ASSERT_TRUE(r.feasible);
  if (!r.modifiedApps.empty()) {
    // Total accounting must be consistent either way.
    EXPECT_EQ(r.modificationCost, costs[r.modifiedApps[0].index()]);
    EXPECT_NEAR(r.totalCost,
                r.objective + opts.costWeight *
                                  static_cast<double>(r.modificationCost),
                1e-9);
  }
}

}  // namespace
}  // namespace ides
