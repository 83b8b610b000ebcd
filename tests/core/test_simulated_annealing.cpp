#include "core/simulated_annealing.h"

#include <gtest/gtest.h>

#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class SaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(
        buildSuite(ides::testing::smallSuiteConfig(), 11));
    frozen_ = std::make_unique<FrozenBase>(
        freezeExistingApplications(suite_->system));
    ASSERT_TRUE(frozen_->feasible);
    eval_ = std::make_unique<SolutionEvaluator>(
        suite_->system, frozen_->state, suite_->profile, MetricWeights{});
    PlatformState state = frozen_->state;
    im_ = initialMapping(suite_->system, state);
    ASSERT_TRUE(im_.feasible);
  }

  SaOptions fastOptions(std::uint64_t seed = 1) const {
    SaOptions opts;
    opts.seed = seed;
    opts.iterations = 1500;
    return opts;
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> eval_;
  ScheduleOutcome im_;
};

TEST_F(SaTest, BestSolutionIsFeasibleAndNeverWorseThanInitial) {
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const SaResult sa = runSimulatedAnnealing(*eval_, im_.mapping,
                                            fastOptions());
  EXPECT_TRUE(sa.eval.feasible);
  EXPECT_LE(sa.eval.cost, initialCost + 1e-9);
  // Re-evaluating the returned solution reproduces the reported cost.
  EXPECT_DOUBLE_EQ(eval_->evaluate(sa.solution).cost, sa.eval.cost);
}

TEST_F(SaTest, ImprovesOnThisInstance) {
  const double initialCost = eval_->evaluate(im_.mapping).cost;
  const SaResult sa = runSimulatedAnnealing(*eval_, im_.mapping,
                                            fastOptions());
  EXPECT_LT(sa.eval.cost, initialCost);
}

TEST_F(SaTest, SameSeedSameResult) {
  const SaResult a = runSimulatedAnnealing(*eval_, im_.mapping,
                                           fastOptions(5));
  const SaResult b = runSimulatedAnnealing(*eval_, im_.mapping,
                                           fastOptions(5));
  EXPECT_DOUBLE_EQ(a.eval.cost, b.eval.cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.solution, b.solution);
}

TEST_F(SaTest, EvaluationCountMatchesIterations) {
  SaOptions opts = fastOptions();
  opts.iterations = 500;
  const SaResult sa = runSimulatedAnnealing(*eval_, im_.mapping, opts);
  // One initial evaluation plus at most one per iteration (message moves
  // can be skipped when the app has no messages; this one has plenty).
  EXPECT_GT(sa.evaluations, 450u);
  EXPECT_LE(sa.evaluations, 501u);
  EXPECT_GT(sa.accepted, 0u);
}

TEST_F(SaTest, LongerBudgetDoesNotHurt) {
  SaOptions shortOpts = fastOptions(3);
  shortOpts.iterations = 200;
  SaOptions longOpts = fastOptions(3);
  longOpts.iterations = 3000;
  const double shortCost =
      runSimulatedAnnealing(*eval_, im_.mapping, shortOpts).eval.cost;
  const double longCost =
      runSimulatedAnnealing(*eval_, im_.mapping, longOpts).eval.cost;
  EXPECT_LE(longCost, shortCost + 1e-9);
}

TEST_F(SaTest, ThrowsOnInfeasibleInitial) {
  // Construct an infeasible start by hinting a current process beyond its
  // deadline window on the same mapping.
  MappingSolution bad = im_.mapping;
  const GraphId g = eval_->currentGraphs().front();
  const ProcessGraph& graph = suite_->system.graph(g);
  const ProcessId p = graph.processes.front();
  bad.setStartHint(p, graph.deadline - 1);
  if (!eval_->evaluate(bad).feasible) {
    EXPECT_THROW(runSimulatedAnnealing(*eval_, bad, fastOptions()),
                 std::invalid_argument);
  } else {
    GTEST_SKIP() << "hint did not break feasibility on this instance";
  }
}

TEST_F(SaTest, RestoreUndoesApplyForEveryMoveKind) {
  // Every kind of move the proposer draws, applied to a copy of the
  // current solution and restored from it, leaves the copy equal to the
  // current solution again; applied to the current solution instead,
  // restoring the copy from it leaves them equal too.
  const SaMoveProposer proposer(*eval_, fastOptions());
  Rng rng(7);
  MappingSolution current = im_.mapping;
  MappingSolution trial = current;
  int seen[4] = {0, 0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    const SaMove move = proposer.propose(current, rng);
    ++seen[static_cast<int>(move.kind)];
    SaMoveProposer::apply(move, trial);
    SaMoveProposer::restore(move, current, trial);
    ASSERT_EQ(trial, current) << "draw " << i;
    if (i % 3 == 0) {
      SaMoveProposer::apply(move, current);
      SaMoveProposer::restore(move, current, trial);
      ASSERT_EQ(trial, current) << "draw " << i;
    }
  }
  EXPECT_GT(seen[static_cast<int>(SaMove::Kind::Remap)], 0);
  EXPECT_GT(seen[static_cast<int>(SaMove::Kind::ProcessHint)], 0);
  EXPECT_GT(seen[static_cast<int>(SaMove::Kind::MessageHint)], 0);
  EXPECT_NE(current, im_.mapping);
}

}  // namespace
}  // namespace ides
