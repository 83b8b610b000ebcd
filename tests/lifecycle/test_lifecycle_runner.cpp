// Lifecycle replay: report determinism across runs and worker counts,
// warm/cold policy behavior, stop-token truncation, the spec-seeded model
// rebuild contract, and the optimizer warm-start overload against a
// hand-built run from the same seed.
#include "lifecycle/lifecycle_runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/incremental_designer.h"
#include "core/initial_mapping.h"
#include "core/simulated_annealing.h"
#include "model/model_io.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

/// Small, fast scenario: 4 nodes, graphs of 4-8 processes, 10 events.
ScenarioConfig smallConfig(std::uint64_t seed = 1, int steps = 10) {
  ScenarioConfig c;
  c.seed = seed;
  c.steps = steps;
  c.nodeCount = 4;
  c.speedPercents = {100, 80, 125};
  c.initialGraphs = 2;
  c.minLiveGraphs = 1;
  c.maxLiveGraphs = 4;
  c.graphProcessesMin = 4;
  c.graphProcessesMax = 8;
  return c;
}

LifecycleOptions fastOptions(StartPolicy policy = StartPolicy::Warm) {
  LifecycleOptions options;
  options.strategy = "SA";
  options.policy = policy;
  options.designer.sa.iterations = 120;
  return options;
}

TEST(LifecycleRunner, ReportJsonIsByteIdenticalAcrossRuns) {
  const LifecycleScenario scenario = generateScenario(smallConfig(5));
  const LifecycleReport first = runLifecycle(scenario, fastOptions());
  const LifecycleReport second = runLifecycle(scenario, fastOptions());

  EXPECT_EQ(first.steps.size(), scenario.events.size());
  EXPECT_GT(first.feasibleSteps, 0u);
  const std::string json = lifecycleReportJson(first, /*timing=*/false);
  EXPECT_EQ(json, lifecycleReportJson(second, /*timing=*/false));
  EXPECT_NE(json.find("\"kind\": \"lifecycle_report\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario_seed\": \"5\""), std::string::npos);
}

TEST(LifecycleRunner, ReportJsonIsByteIdenticalAcrossPsaWorkerCounts) {
  // The whole point of the deterministic rendering: thread count is a
  // result-neutral knob, so a PSA replay diffs clean across worker counts.
  const LifecycleScenario scenario = generateScenario(smallConfig(9));
  LifecycleOptions options = fastOptions();
  options.strategy = "PSA";
  options.designer.sa.iterations = 60;
  options.designer.psa.restarts = 2;

  options.designer.psa.threads = 1;
  const LifecycleReport serial = runLifecycle(scenario, options);
  options.designer.psa.threads = 4;
  const LifecycleReport parallel = runLifecycle(scenario, options);
  EXPECT_EQ(lifecycleReportJson(serial, /*timing=*/false),
            lifecycleReportJson(parallel, /*timing=*/false));
}

TEST(LifecycleRunner, ColdPolicyNeverWarmStartsWarmPolicyDoes) {
  const LifecycleScenario scenario = generateScenario(smallConfig());
  const LifecycleReport warm =
      runLifecycle(scenario, fastOptions(StartPolicy::Warm));
  const LifecycleReport cold =
      runLifecycle(scenario, fastOptions(StartPolicy::Cold));

  EXPECT_GT(warm.warmStarts, 0u);
  EXPECT_EQ(cold.warmStarts, 0u);
  for (const LifecycleStep& step : cold.steps) {
    EXPECT_FALSE(step.warmStart) << "step " << step.step;
  }
  EXPECT_NE(lifecycleReportJson(cold).find("\"policy\": \"cold\""),
            std::string::npos);
}

TEST(LifecycleRunner, StopTokenTruncatesTheStreamBetweenSteps) {
  const LifecycleScenario scenario = generateScenario(smallConfig());

  StopToken preFired;
  preFired.requestStop();
  LifecycleOptions options = fastOptions();
  options.stop = &preFired;
  const LifecycleReport empty = runLifecycle(scenario, options);
  EXPECT_TRUE(empty.stopped);
  EXPECT_TRUE(empty.steps.empty());

  // Fire after the second step's final evaluation: the two finished steps
  // stay untainted, the rest of the stream is skipped.
  StopToken midRun;
  std::size_t finals = 0;
  LifecycleOptions truncating = fastOptions();
  truncating.stop = &midRun;
  truncating.progress = [&](const ProgressEvent& event) {
    if (event.phase == "final" && ++finals == 2) midRun.requestStop();
  };
  const LifecycleReport truncated = runLifecycle(scenario, truncating);
  EXPECT_TRUE(truncated.stopped);
  ASSERT_EQ(truncated.steps.size(), 2u);
  EXPECT_FALSE(truncated.steps[0].stopped);
  EXPECT_FALSE(truncated.steps[1].stopped);
}

TEST(LifecycleRunner, UnknownStrategyThrowsListingTheValidSet) {
  const LifecycleScenario scenario = generateScenario(smallConfig());
  LifecycleOptions options = fastOptions();
  options.strategy = "annealer";
  EXPECT_THROW((void)runLifecycle(scenario, options), std::invalid_argument);
}

TEST(LifecycleRunner, RemoveThenReaddRebuildsTheModelBitIdentically) {
  // The determinism the warm policy rests on: a graph's structure depends
  // only on its spec (uid-derived seed), so removing a sibling and adding
  // it back reproduces the exact model bytes.
  const ScenarioConfig config = smallConfig();
  const LifecycleScenario scenario = generateScenario(config);
  LivingDesign design = initialDesign(config);
  applyEvent(design, scenario.events[0]);
  applyEvent(design, scenario.events[1]);
  const std::string before =
      modelToString(buildDesignModel(config, design).system);

  const LifecycleGraphSpec spec = design.graphs.back();
  LifecycleEvent remove;
  remove.kind = LifecycleEventKind::RemoveGraph;
  remove.uid = spec.uid;
  applyEvent(design, remove);
  EXPECT_NE(modelToString(buildDesignModel(config, design).system), before);

  LifecycleEvent readd;
  readd.kind = LifecycleEventKind::AddGraph;
  readd.uid = spec.uid;
  readd.add = spec;
  applyEvent(design, readd);
  EXPECT_EQ(modelToString(buildDesignModel(config, design).system), before);
}

TEST(LifecycleRunner, EmptyLivingDesignCannotBeBuilt) {
  const ScenarioConfig config = smallConfig();
  EXPECT_THROW((void)buildDesignModel(config, initialDesign(config)),
               std::invalid_argument);
}

// ---- the optimizer warm-start overload ------------------------------------

class LifecycleWarmStart : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 21));
    options_.sa.iterations = 400;
    designer_ = std::make_unique<IncrementalDesigner>(
        suite_->system, suite_->profile, options_);
    PlatformState state = designer_->evaluator().baseline();
    const ScheduleOutcome im = initialMapping(suite_->system, state);
    ASSERT_TRUE(im.feasible);
    seed_ = im.mapping;
  }

  std::unique_ptr<Suite> suite_;
  DesignerOptions options_;
  std::unique_ptr<IncrementalDesigner> designer_;
  MappingSolution seed_;
};

TEST_F(LifecycleWarmStart, WarmSaRunMatchesAHandBuiltRunFromTheSeed) {
  RunContext context;
  std::vector<std::string> phases;
  context.progress = [&](const ProgressEvent& event) {
    phases.emplace_back(event.phase);
  };
  const RunReport warm =
      runStrategy("SA", options_, designer_->evaluator(), context, &seed_);

  const SaResult direct =
      runSimulatedAnnealing(designer_->evaluator(), seed_, options_.sa);
  EXPECT_TRUE(warm.feasible);
  EXPECT_EQ(warm.mapping, direct.solution);
  EXPECT_EQ(warm.objective, direct.eval.cost);
  // Seed validation + improvement + final evaluation.
  EXPECT_EQ(warm.evaluations, direct.evaluations + 2);
  const std::vector<std::string> expected = {"warm-start", "improve",
                                             "final"};
  EXPECT_EQ(phases, expected);
}

TEST_F(LifecycleWarmStart, NullSeedIsExactlyTheColdRun) {
  RunContext viaNull;
  const RunReport fromNull =
      runStrategy("SA", options_, designer_->evaluator(), viaNull, nullptr);
  RunContext coldContext;
  const RunReport cold =
      runStrategy("SA", options_, designer_->evaluator(), coldContext);
  EXPECT_EQ(fromNull.mapping, cold.mapping);
  EXPECT_EQ(fromNull.objective, cold.objective);
  EXPECT_EQ(fromNull.evaluations, cold.evaluations);
}

TEST_F(LifecycleWarmStart, InfeasibleSeedFallsBackToTheColdRun) {
  // Push every start hint far past the deadline — a stale-seed stand-in
  // that stays legal (hints always are) but cannot schedule feasibly.
  MappingSolution bad = seed_;
  for (std::size_t i = 0; i < bad.processCount(); ++i) {
    bad.setStartHint(ProcessId{static_cast<std::int32_t>(i)},
                     suite_->system.hyperperiod());
  }
  ASSERT_FALSE(designer_->evaluator().evaluate(bad).feasible);

  RunContext warmContext;
  std::vector<std::string> phases;
  warmContext.progress = [&](const ProgressEvent& event) {
    phases.emplace_back(event.phase);
  };
  const RunReport fromBad =
      runStrategy("SA", options_, designer_->evaluator(), warmContext, &bad);
  RunContext coldContext;
  const RunReport cold =
      runStrategy("SA", options_, designer_->evaluator(), coldContext);

  EXPECT_EQ(fromBad.mapping, cold.mapping);
  EXPECT_EQ(fromBad.objective, cold.objective);
  // The rejected seed's validation pass is still accounted.
  EXPECT_EQ(fromBad.evaluations, cold.evaluations + 1);
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases.front(), "initial-mapping");
}

TEST(LifecycleStartPolicy, NamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(startPolicyFromString(toString(StartPolicy::Warm)),
            StartPolicy::Warm);
  EXPECT_EQ(startPolicyFromString(toString(StartPolicy::Cold)),
            StartPolicy::Cold);
  EXPECT_THROW((void)startPolicyFromString("tepid"), std::invalid_argument);
}

}  // namespace
}  // namespace ides
