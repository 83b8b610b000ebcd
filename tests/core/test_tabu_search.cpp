// Tabu search: determinism, the incremental-evaluation bit-identity
// contract, runStrategy against a direct call, stop-token
// discipline, and options validation.
#include "core/tabu_search.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/incremental_designer.h"
#include "core/initial_mapping.h"
#include "core/optimizer.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class TabuSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 17));
    options_.tabu.iterations = 200;
    options_.tabu.candidates = 4;
    designer_ = std::make_unique<IncrementalDesigner>(
        suite_->system, suite_->profile, options_);
    PlatformState state = designer_->evaluator().baseline();
    const ScheduleOutcome im = initialMapping(suite_->system, state);
    ASSERT_TRUE(im.feasible);
    initial_ = im.mapping;
  }

  std::unique_ptr<Suite> suite_;
  DesignerOptions options_;
  std::unique_ptr<IncrementalDesigner> designer_;
  MappingSolution initial_;
};

TEST_F(TabuSearchTest, RunsAreDeterministicAndNeverWorseThanTheInitial) {
  const TabuResult first =
      runTabuSearch(designer_->evaluator(), initial_, options_.tabu);
  const TabuResult second =
      runTabuSearch(designer_->evaluator(), initial_, options_.tabu);

  EXPECT_TRUE(first.eval.feasible);
  // Best-so-far discipline: the result is at most the initial cost.
  const EvalResult start = designer_->evaluator().evaluate(initial_);
  EXPECT_LE(first.eval.cost, start.cost);

  EXPECT_EQ(first.solution, second.solution);
  EXPECT_EQ(first.eval.cost, second.eval.cost);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.proposals, second.proposals);
  EXPECT_EQ(first.accepted, second.accepted);
}

TEST_F(TabuSearchTest, RegistryRunIsBitIdenticalToTheDirectCall) {
  const TabuResult direct =
      runTabuSearch(designer_->evaluator(), initial_, options_.tabu);
  const RunReport viaName = designer_->run("tabu");
  EXPECT_TRUE(viaName.feasible);
  EXPECT_EQ(viaName.mapping, direct.solution);
  EXPECT_EQ(viaName.objective, direct.eval.cost);
  EXPECT_EQ(viaName.evaluations, direct.evaluations + 2);  // IM + final
}

TEST_F(TabuSearchTest, PreFiredStopKeepsTheInitialSolution) {
  StopToken stop;
  stop.requestStop();
  TabuOptions options = options_.tabu;
  options.stop = &stop;
  const TabuResult stopped =
      runTabuSearch(designer_->evaluator(), initial_, options);
  EXPECT_TRUE(stopped.stopped);
  EXPECT_EQ(stopped.solution, initial_);
  EXPECT_EQ(stopped.evaluations, 1u);  // only the initial evaluation
  EXPECT_EQ(stopped.accepted, 0u);
}

TEST_F(TabuSearchTest, UnfiredStopTokenLeavesTheTrajectoryUntouched) {
  StopToken stop;  // never fires
  TabuOptions withToken = options_.tabu;
  withToken.stop = &stop;
  const TabuResult guarded =
      runTabuSearch(designer_->evaluator(), initial_, withToken);
  const TabuResult plain =
      runTabuSearch(designer_->evaluator(), initial_, options_.tabu);
  EXPECT_FALSE(guarded.stopped);
  EXPECT_EQ(guarded.solution, plain.solution);
  EXPECT_EQ(guarded.eval.cost, plain.eval.cost);
}

TEST_F(TabuSearchTest, InfeasibleInitialSolutionThrows) {
  // Start hints far past the deadline: legal, but never feasible.
  MappingSolution bad = initial_;
  for (std::size_t i = 0; i < bad.processCount(); ++i) {
    bad.setStartHint(ProcessId{static_cast<std::int32_t>(i)},
                     suite_->system.hyperperiod());
  }
  ASSERT_FALSE(designer_->evaluator().evaluate(bad).feasible);
  EXPECT_THROW(
      (void)runTabuSearch(designer_->evaluator(), bad, options_.tabu),
      std::invalid_argument);
}

TEST(TabuValidation, KnobsAreRangeChecked) {
  const auto rejects = [](void (*tweak)(TabuOptions&)) {
    TabuOptions options;
    tweak(options);
    EXPECT_THROW(validateOptions(options), std::invalid_argument);
  };
  rejects([](TabuOptions& o) { o.iterations = -1; });
  rejects([](TabuOptions& o) { o.candidates = 0; });
  rejects([](TabuOptions& o) { o.tenure = -1; });
  rejects([](TabuOptions& o) { o.probRemap = 1.5; });
  rejects([](TabuOptions& o) {
    o.probRemap = 0.7;
    o.probProcessHint = 0.7;  // sums past 1
  });
  // Tabu knobs are validated as part of the designer bag, too.
  DesignerOptions designer;
  designer.tabu.candidates = 0;
  EXPECT_THROW(validateOptions(designer), std::invalid_argument);
}

}  // namespace
}  // namespace ides
