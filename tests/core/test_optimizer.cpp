// The strategy entry point: name resolution, bit-identity of runStrategy
// against direct strategy calls, stop tokens, progress events, and options
// validation.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental_designer.h"
#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "obs/telemetry.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 21));
    DesignerOptions opts;
    opts.sa.iterations = 800;  // keep the test fast
    opts.psa.restarts = 3;
    opts.psa.threads = 2;
    designer_ = std::make_unique<IncrementalDesigner>(suite_->system,
                                                      suite_->profile, opts);
  }

  /// The Initial Mapping every strategy starts from (the legacy flow).
  MappingSolution initialSolution() const {
    PlatformState state = designer_->evaluator().baseline();
    const ScheduleOutcome im =
        initialMapping(suite_->system, state);
    EXPECT_TRUE(im.feasible);
    return im.mapping;
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<IncrementalDesigner> designer_;
};

TEST_F(OptimizerTest, BuiltinRegistryListsThePaperStrategies) {
  const std::vector<std::string> expected = {"AH", "MH", "SA", "PSA",
                                             "tabu"};
  EXPECT_EQ(strategyNames(), expected);
  for (const std::string& name : expected) {
    EXPECT_NO_THROW(requireStrategy(name)) << name;
  }
  const RunReport ah = designer_->run("AH");
  EXPECT_EQ(ah.strategy, "AH");
}

TEST_F(OptimizerTest, UnknownStrategyThrowsListingTheValidSet) {
  try {
    RunContext context;
    (void)runStrategy("simulated-annealing", designer_->options(),
                      designer_->evaluator(), context);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown strategy \"simulated-annealing\""),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("(available: AH, MH, SA, PSA, tabu)"),
              std::string::npos)
        << message;
  }
}

TEST_F(OptimizerTest, SaThroughInterfaceIsBitIdenticalToDirectCall) {
  SaOptions sa = designer_->options().sa;
  const SaResult direct = runSimulatedAnnealing(
      designer_->evaluator(), initialSolution(), sa);

  const RunReport viaName = designer_->run("SA");
  EXPECT_TRUE(viaName.feasible);
  EXPECT_EQ(viaName.mapping, direct.solution);
  EXPECT_EQ(viaName.objective, direct.eval.cost);
  EXPECT_EQ(viaName.evaluations, direct.evaluations + 2);  // IM + final
}

TEST_F(OptimizerTest, PsaThroughInterfaceIsBitIdenticalToDirectCall) {
  ParallelSaOptions psa = designer_->options().psa;
  psa.base = designer_->options().sa;
  const ParallelSaResult direct = runParallelAnnealing(
      designer_->evaluator(), initialSolution(), psa);

  const RunReport viaName = designer_->run("PSA");
  EXPECT_TRUE(viaName.feasible);
  EXPECT_EQ(viaName.mapping, direct.solution);
  EXPECT_EQ(viaName.objective, direct.eval.cost);
}

TEST_F(OptimizerTest, RepeatedRunsThroughSharedContextAreRepeatable) {
  // The designer's RunContext keeps one pool lease across runs; reusing
  // warm evaluation contexts must not change any result.
  const RunReport first = designer_->run("MH");
  const RunReport ah = designer_->run("AH");
  const RunReport second = designer_->run("MH");
  EXPECT_EQ(first.mapping, second.mapping);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_TRUE(ah.feasible);
}

TEST_F(OptimizerTest, PreFiredStopTokenDegradesSaToTheInitialMapping) {
  StopToken stop;
  stop.requestStop();
  RunContext context;
  context.stop = &stop;
  const RunReport stopped = designer_->run("SA", context);
  const RunReport ah = designer_->run("AH");
  EXPECT_TRUE(stopped.stopped);
  EXPECT_TRUE(stopped.feasible);
  EXPECT_EQ(stopped.mapping, ah.mapping);
  EXPECT_EQ(stopped.objective, ah.objective);
}

TEST_F(OptimizerTest, PassedDeadlineStopsEveryStrategyGracefully) {
  for (const char* name : {"MH", "SA", "PSA"}) {
    StopToken stop;
    stop.setTimeout(-1.0);  // already expired
    RunContext context;
    context.stop = &stop;
    const RunReport r = designer_->run(name, context);
    EXPECT_TRUE(r.stopped) << name;
    EXPECT_TRUE(r.feasible) << name;
  }
}

TEST_F(OptimizerTest, UnfiredStopTokenLeavesSaBitIdentical) {
  StopToken stop;  // never fires, no deadline
  RunContext context;
  context.stop = &stop;
  const RunReport withToken = designer_->run("SA", context);
  const RunReport without = designer_->run("SA");
  EXPECT_EQ(withToken.mapping, without.mapping);
  EXPECT_EQ(withToken.objective, without.objective);
  EXPECT_FALSE(withToken.stopped);
}

TEST_F(OptimizerTest, ProgressSinkSeesPhaseBoundaries) {
  std::vector<std::string> phases;
  RunContext context;
  context.progress = [&](const ProgressEvent& event) {
    phases.emplace_back(event.phase);
  };
  const RunReport r = designer_->run("MH", context);
  EXPECT_TRUE(r.feasible);
  const std::vector<std::string> expected = {"initial-mapping", "improve",
                                             "final"};
  EXPECT_EQ(phases, expected);
}

TEST(OptimizerColdStart, MapsTheEvaluatorsMovableGraphs) {
  // An evaluator over a Future application's graphs, as an increment's
  // optimization builds it. Without a warm start, the Initial Mapping must
  // map those graphs — not the AppKind::Current ones, which would leave
  // every movable process on an unassigned node.
  SuiteConfig cfg;
  cfg.nodeCount = 8;
  cfg.existingProcesses = 60;
  cfg.currentProcesses = 16;
  cfg.futureAppCount = 6;
  cfg.futureProcesses = 12;
  cfg.futureGraphSize = 12;
  cfg.tneedOverride = 1656;
  const Suite suite = buildSuite(cfg, 3);
  const SystemModel& sys = suite.system;
  const FrozenBase frozen = freezeExistingApplications(sys);
  ASSERT_TRUE(frozen.feasible);
  const std::vector<ApplicationId> future =
      sys.applicationsOfKind(AppKind::Future);
  ASSERT_FALSE(future.empty());
  const std::vector<GraphId>& increment = sys.application(future[0]).graphs;
  const SolutionEvaluator evaluator(sys, frozen.state, suite.profile,
                                    MetricWeights{}, increment);
  std::size_t jobs = 0;
  for (const GraphId g : increment) {
    const auto instances = static_cast<std::size_t>(sys.instanceCount(g));
    jobs += instances * sys.graph(g).processes.size();
  }

  DesignerOptions options;
  options.sa.iterations = 300;
  options.psa.restarts = 2;
  options.psa.threads = 2;
  options.tabu.iterations = 300;
  for (const std::string& name : strategyNames()) {
    SCOPED_TRACE(name);
    RunContext context;
    const RunReport report = runStrategy(name, options, evaluator, context);
    EXPECT_TRUE(report.feasible);
    ASSERT_EQ(report.schedule.processEntryCount(), jobs);
    for (const ScheduledProcess& sp : report.schedule.processes()) {
      const GraphId g = sys.process(sp.pid).graph;
      EXPECT_EQ(std::count(increment.begin(), increment.end(), g), 1);
    }
  }
}

TEST(OptimizerTelemetry, RejectedWarmSeedIsCountedOnce) {
  const Suite suite = buildSuite(ides::testing::smallSuiteConfig(), 3);
  const SystemModel& sys = suite.system;
  IncrementalDesigner designer(sys, suite.profile);
  PlatformState state = designer.evaluator().baseline();
  const ScheduleOutcome im = initialMapping(sys, state);
  ASSERT_TRUE(im.feasible);
  // Every current start hint at the hyperperiod: a legal seed that cannot
  // be scheduled feasibly, so the run falls back to the Initial Mapping.
  MappingSolution stale = im.mapping;
  for (const GraphId g : sys.graphsOfKind(AppKind::Current)) {
    for (const ProcessId p : sys.graph(g).processes) {
      stale.setStartHint(p, sys.hyperperiod());
    }
  }
  ASSERT_FALSE(designer.evaluator().evaluate(stale).feasible);

  const bool wasEnabled = telemetryEnabled();
  setTelemetryEnabled(true);
  const MetricLabels labels = {{"strategy", "MH"}};
  Counter& runs = telemetry().counter("ides_opt_runs_total",
                                      "Completed optimizer runs", labels);
  Counter& evals = telemetry().counter(
      "ides_opt_evaluations_total",
      "Schedule evaluations consumed by optimizer runs", labels);
  const std::uint64_t runsBefore = runs.value();
  const std::uint64_t evalsBefore = evals.value();
  RunContext context;
  const RunReport report =
      runStrategy("MH", {}, designer.evaluator(), context, &stale);
  const std::uint64_t runsMoved = runs.value() - runsBefore;
  const std::uint64_t evalsMoved = evals.value() - evalsBefore;
  setTelemetryEnabled(wasEnabled);

  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(runsMoved, 1u);
  EXPECT_EQ(evalsMoved, report.evaluations);
}

// ---- options validation ---------------------------------------------------

TEST(OptimizerValidation, NegativeSaIterationsThrow) {
  SaOptions opts;
  opts.iterations = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, SaMoveMixOutOfRangeThrows) {
  SaOptions opts;
  opts.probRemap = 1.5;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.probRemap = 0.7;
  opts.probProcessHint = 0.7;  // sums past 1
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.probProcessHint = -0.1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, SaTemperatureKnobsAreRangeChecked) {
  SaOptions opts;
  opts.finalTemp = 0.0;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = SaOptions{};
  opts.initialTempFactor = -0.5;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, SpeculationKnobsAreRangeChecked) {
  SaOptions opts;
  opts.speculation.workers = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.speculation.workers = kMaxAnnealingThreads + 1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.speculation.workers = kMaxAnnealingThreads;
  EXPECT_NO_THROW(validateOptions(opts));
  opts.speculation.workers = 0;
  EXPECT_NO_THROW(validateOptions(opts));
}

TEST(OptimizerValidation, NegativeMhBudgetsThrow) {
  MhOptions opts;
  opts.maxIterations = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = MhOptions{};
  opts.candidateProcesses = -3;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, PsaShapeIsRangeChecked) {
  ParallelSaOptions opts;
  opts.restarts = 0;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = ParallelSaOptions{};
  opts.threads = -2;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = ParallelSaOptions{};
  opts.perChainIterations = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  // Thread counts stop at one shared cap.
  opts = ParallelSaOptions{};
  opts.threads = kMaxAnnealingThreads + 1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = ParallelSaOptions{};
  opts.speculativeWorkers = kMaxAnnealingThreads + 1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts.speculativeWorkers = kMaxAnnealingThreads;
  EXPECT_NO_THROW(validateOptions(opts));
  // 0 threads = hardware concurrency, a legal auto value.
  opts = ParallelSaOptions{};
  opts.threads = 0;
  EXPECT_NO_THROW(validateOptions(opts));
}

TEST(OptimizerValidation, DesignerOptionsValidateEveryLayer) {
  DesignerOptions opts;
  opts.weights.w2p = -1.0;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = DesignerOptions{};
  opts.sa.iterations = -5;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
  opts = DesignerOptions{};
  opts.mh.busWindows = -1;
  EXPECT_THROW(validateOptions(opts), std::invalid_argument);
}

TEST(OptimizerValidation, InvalidOptionsFailAtTheEntryPoints) {
  const Suite suite = buildSuite(ides::testing::smallSuiteConfig(40, 12), 5);
  DesignerOptions bad;
  bad.sa.iterations = -1;
  EXPECT_THROW(IncrementalDesigner(suite.system, suite.profile, bad),
               std::invalid_argument);

  IncrementalDesigner designer(suite.system, suite.profile);
  RunContext context;
  EXPECT_THROW(
      (void)runStrategy("SA", bad, designer.evaluator(), context),
      std::invalid_argument);
  PlatformState state = designer.evaluator().baseline();
  const ScheduleOutcome im = initialMapping(suite.system, state);
  ASSERT_TRUE(im.feasible);
  SaOptions badSa;
  badSa.iterations = -1;
  EXPECT_THROW((void)runSimulatedAnnealing(designer.evaluator(), im.mapping,
                                           badSa),
               std::invalid_argument);
  MhOptions badMh;
  badMh.maxIterations = -1;
  EXPECT_THROW((void)runMappingHeuristic(designer.evaluator(), im.mapping,
                                         badMh),
               std::invalid_argument);
}

}  // namespace
}  // namespace ides
