#include "core/multi_increment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class MultiIncrementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Several candidate increments embedded as Future applications.
    SuiteConfig cfg = ides::testing::smallSuiteConfig();
    cfg.currentProcesses = 16;  // version N increment is small
    cfg.futureAppCount = 6;
    cfg.futureProcesses = 12;
    cfg.futureGraphSize = 12;
    cfg.tneedOverride = 2 * 12 * 69;
    suite_ = std::make_unique<Suite>(buildSuite(cfg, 9));
    // The queue: the current app first, then the future candidates.
    increments_ = suite_->system.applicationsOfKind(AppKind::Current);
    const auto futures =
        suite_->system.applicationsOfKind(AppKind::Future);
    increments_.insert(increments_.end(), futures.begin(), futures.end());
  }

  std::unique_ptr<Suite> suite_;
  std::vector<ApplicationId> increments_;
};

TEST_F(MultiIncrementTest, PreFiredStopTokenYieldsAnEmptyUntaintedRun) {
  StopToken stop;
  stop.requestStop();
  MultiIncrementOptions options;
  options.stop = &stop;
  const MultiIncrementResult r = runIncrementSequence(
      suite_->system, suite_->profile, increments_, options);
  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(r.steps.empty());
  EXPECT_EQ(r.accepted, 0u);
}

TEST_F(MultiIncrementTest, UnfiredStopTokenChangesNothing) {
  StopToken stop;  // never fires
  MultiIncrementOptions options;
  options.stop = &stop;
  const MultiIncrementResult withToken = runIncrementSequence(
      suite_->system, suite_->profile, increments_, options);
  const MultiIncrementResult without = runIncrementSequence(
      suite_->system, suite_->profile, increments_, {});
  EXPECT_FALSE(withToken.stopped);
  EXPECT_EQ(withToken.accepted, without.accepted);
  ASSERT_EQ(withToken.steps.size(), without.steps.size());
  for (std::size_t i = 0; i < withToken.steps.size(); ++i) {
    EXPECT_EQ(withToken.steps[i].accepted, without.steps[i].accepted) << i;
    EXPECT_EQ(withToken.steps[i].objective, without.steps[i].objective) << i;
  }
}

TEST_F(MultiIncrementTest, AcceptsAtLeastTheFirstIncrement) {
  const MultiIncrementResult r = runIncrementSequence(
      suite_->system, suite_->profile, increments_, {});
  ASSERT_EQ(r.steps.size(), increments_.size());
  EXPECT_TRUE(r.steps.front().accepted);
  EXPECT_GE(r.accepted, 1u);
}

TEST_F(MultiIncrementTest, AcceptedStepsReportMetrics) {
  const MultiIncrementResult r = runIncrementSequence(
      suite_->system, suite_->profile, increments_, {});
  for (const IncrementStep& step : r.steps) {
    if (step.accepted) {
      EXPECT_GE(step.objective, 0.0);
      EXPECT_GE(step.metrics.c2p, 0);
    }
  }
}

TEST_F(MultiIncrementTest, OccupancyGrowsMonotonically) {
  const FrozenBase base = freezeExistingApplications(suite_->system);
  const MultiIncrementResult r = runIncrementSequence(
      suite_->system, suite_->profile, increments_, {});
  EXPECT_LT(r.finalState.totalNodeSlack(), base.state.totalNodeSlack());
}

TEST_F(MultiIncrementTest, FutureAwarePolicyAbsorbsAtLeastAsMany) {
  MultiIncrementOptions ahOpts;
  ahOpts.strategy = "AH";
  MultiIncrementOptions mhOpts;
  mhOpts.strategy = "MH";
  const MultiIncrementResult ah = runIncrementSequence(
      suite_->system, suite_->profile, increments_, ahOpts);
  const MultiIncrementResult mh = runIncrementSequence(
      suite_->system, suite_->profile, increments_, mhOpts);
  EXPECT_GE(mh.accepted, ah.accepted);
}

TEST_F(MultiIncrementTest, StopAtFirstRejectTruncatesTheRun) {
  MultiIncrementOptions opts;
  opts.stopAtFirstReject = true;
  const MultiIncrementResult r = runIncrementSequence(
      suite_->system, suite_->profile, increments_, opts);
  // Either everything was accepted, or the run ends right after the first
  // rejection.
  if (r.accepted < increments_.size()) {
    EXPECT_EQ(r.steps.size(), r.accepted + 1);
    EXPECT_FALSE(r.steps.back().accepted);
  }
}

TEST_F(MultiIncrementTest, DeterministicAcrossRuns) {
  const MultiIncrementResult a = runIncrementSequence(
      suite_->system, suite_->profile, increments_, {});
  const MultiIncrementResult b = runIncrementSequence(
      suite_->system, suite_->profile, increments_, {});
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].accepted, b.steps[i].accepted);
    EXPECT_DOUBLE_EQ(a.steps[i].objective, b.steps[i].objective);
  }
}

TEST_F(MultiIncrementTest, PsaRunsTheEnsembleNotASingleChain) {
  // One increment, so the step objective is the optimized design's C.
  // PSA's chain 0 replays the SA chain, so the ensemble can only improve
  // on it; on this seed another chain wins, so the two must differ.
  const std::vector<ApplicationId> queue = {increments_.front()};
  MultiIncrementOptions options;
  options.designer.sa.seed = 1;
  options.designer.sa.iterations = 300;
  options.designer.psa.restarts = 4;
  options.designer.psa.threads = 2;
  options.strategy = "SA";
  const MultiIncrementResult sa =
      runIncrementSequence(suite_->system, suite_->profile, queue, options);
  options.strategy = "PSA";
  const MultiIncrementResult psa =
      runIncrementSequence(suite_->system, suite_->profile, queue, options);
  ASSERT_TRUE(sa.steps.at(0).accepted);
  ASSERT_TRUE(psa.steps.at(0).accepted);
  EXPECT_LE(psa.steps[0].objective, sa.steps[0].objective);
  EXPECT_NE(psa.steps[0].objective, sa.steps[0].objective);
}

TEST_F(MultiIncrementTest, UnknownStrategyThrowsListingTheRegisteredNames) {
  MultiIncrementOptions options;
  options.strategy = "annealing";
  try {
    (void)runIncrementSequence(suite_->system, suite_->profile, increments_,
                               options);
    FAIL() << "unknown strategy accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("AH, MH, SA, PSA, tabu"),
              std::string::npos)
        << e.what();
  }
}

TEST(MultiIncrementErrors, ThrowsOnUnschedulableBase) {
  SystemModel sys(makeUniformArchitecture(1, 10, 1));
  const ApplicationId e = sys.addApplication("e", AppKind::Existing);
  const GraphId ge = sys.addGraph(e, 100);
  sys.addProcess(ge, "E0", {60});
  sys.addProcess(ge, "E1", {60});
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
  EXPECT_THROW(runIncrementSequence(sys, profile, {c}, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace ides
