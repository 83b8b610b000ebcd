#include "core/multi_increment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

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

// Increments of two graphs each, neither in heaviest-first order: the
// Initial Mapping commits an increment's graphs in their given order, the
// evaluator schedules them heaviest-first, and on these seeds the latter
// misses deadlines for some increment.
class MultiIncrementTwoGraphs : public ::testing::Test {
 protected:
  static Suite suite(std::uint64_t seed) {
    SuiteConfig cfg;
    cfg.nodeCount = 4;
    cfg.basePeriod = 6000;
    cfg.tmin = 3000;
    cfg.existingProcesses = 40;
    cfg.currentProcesses = 32;
    cfg.currentGraphSize = 16;
    cfg.futureAppCount = 4;
    cfg.futureProcesses = 28;
    cfg.futureGraphSize = 12;
    cfg.tneedOverride = 2208;
    return buildSuite(cfg, seed);
  }

  /// The Current application, then the Future ones (incrementsSweep's
  /// queue).
  static std::vector<ApplicationId> queue(const SystemModel& sys) {
    std::vector<ApplicationId> out = sys.applicationsOfKind(AppKind::Current);
    const auto futures = sys.applicationsOfKind(AppKind::Future);
    out.insert(out.end(), futures.begin(), futures.end());
    return out;
  }
};

TEST_F(MultiIncrementTwoGraphs,
       SequencesReturnWhenAnInitialMappingMissesDeadlines) {
  struct Case {
    const char* strategy;
    std::uint64_t seeds[2];
  };
  const Case cases[] = {{"MH", {7002, 7004}},
                        {"SA", {7002, 7003}},
                        {"PSA", {7003, 7005}},
                        {"tabu", {7005, 7017}}};
  for (const Case& c : cases) {
    for (const std::uint64_t seed : c.seeds) {
      SCOPED_TRACE(std::string(c.strategy) + " seed " +
                   std::to_string(seed));
      const Suite s = suite(seed);
      const std::vector<ApplicationId> increments = queue(s.system);
      MultiIncrementOptions options;
      options.strategy = c.strategy;
      options.designer.sa.iterations = 2000;
      options.designer.psa.restarts = 2;
      options.designer.psa.threads = 2;
      options.designer.tabu.iterations = 2000;
      std::size_t steps = 0;
      ASSERT_NO_THROW(steps = runIncrementSequence(s.system, s.profile,
                                                   increments, options)
                                  .steps.size());
      EXPECT_EQ(steps, increments.size());
    }
  }
}

TEST_F(MultiIncrementTwoGraphs, StepObjectiveIsTheObjectiveTheStrategyScored) {
  const Suite s = suite(7001);
  const SystemModel& sys = s.system;
  const ApplicationId app = sys.applicationsOfKind(AppKind::Current).at(0);
  for (const std::string strategy : {"AH", "MH"}) {
    SCOPED_TRACE(strategy);
    MultiIncrementOptions options;
    options.strategy = strategy;
    const MultiIncrementResult r =
        runIncrementSequence(sys, s.profile, {app}, options);
    ASSERT_EQ(r.steps.size(), 1u);
    ASSERT_TRUE(r.steps[0].accepted);

    const SolutionEvaluator evaluator(
        sys, freezeExistingApplications(sys).state, s.profile,
        options.designer.weights, sys.application(app).graphs);
    RunContext context;
    const RunReport report =
        runStrategy(strategy, options.designer, evaluator, context);
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(r.steps[0].objective, report.objective);
    EXPECT_EQ(r.steps[0].metrics.c2p, report.metrics.c2p);
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
