#include "core/parallel_annealing.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/initial_mapping.h"
#include "core/simulated_annealing.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"

namespace ides {
namespace {

class ParallelSaTest : public ::testing::Test {
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

  ParallelSaOptions fastOptions(std::uint64_t seed = 1, int restarts = 4,
                                int threads = 0) const {
    ParallelSaOptions opts;
    opts.base.seed = seed;
    opts.base.iterations = 800;
    opts.restarts = restarts;
    opts.threads = threads;
    return opts;
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> eval_;
  ScheduleOutcome im_;
};

TEST_F(ParallelSaTest, IncumbentIsFeasibleAndReproducible) {
  const ParallelSaResult r =
      runParallelAnnealing(*eval_, im_.mapping, fastOptions());
  EXPECT_TRUE(r.eval.feasible);
  EXPECT_GE(r.bestChain, 0);
  EXPECT_LT(r.bestChain, 4);
  // Re-evaluating the returned incumbent reproduces the reported cost and
  // stays feasible.
  const EvalResult again = eval_->evaluate(r.solution);
  EXPECT_TRUE(again.feasible);
  EXPECT_DOUBLE_EQ(again.cost, r.eval.cost);
}

TEST_F(ParallelSaTest, DeterministicForFixedSeedsAcrossThreadCounts) {
  const ParallelSaResult a =
      runParallelAnnealing(*eval_, im_.mapping, fastOptions(7, 5, 1));
  const ParallelSaResult b =
      runParallelAnnealing(*eval_, im_.mapping, fastOptions(7, 5, 4));
  const ParallelSaResult c =
      runParallelAnnealing(*eval_, im_.mapping, fastOptions(7, 5, 4));
  // Same ensemble seed: identical chains, winner, and incumbent — no matter
  // how many workers ran them.
  EXPECT_EQ(a.chainCosts, b.chainCosts);
  EXPECT_EQ(b.chainCosts, c.chainCosts);
  EXPECT_EQ(a.bestChain, b.bestChain);
  EXPECT_DOUBLE_EQ(a.eval.cost, b.eval.cost);
  EXPECT_TRUE(a.solution == b.solution);
  EXPECT_TRUE(b.solution == c.solution);
}

TEST_F(ParallelSaTest, DistinctSeedsProduceDistinctChains) {
  const ParallelSaResult r =
      runParallelAnnealing(*eval_, im_.mapping, fastOptions(3, 4));
  ASSERT_EQ(r.chainCosts.size(), 4u);
  // Chain seeds must differ (chain 0 keeps the base seed).
  EXPECT_EQ(parallelSaChainSeed(3, 0), 3u);
  EXPECT_NE(parallelSaChainSeed(3, 1), parallelSaChainSeed(3, 2));
  EXPECT_NE(parallelSaChainSeed(3, 1), 3u);
}

TEST_F(ParallelSaTest, BestOfKNeverWorseThanSingleChain) {
  const ParallelSaOptions opts = fastOptions(5, 4);
  const SaResult single =
      runSimulatedAnnealing(*eval_, im_.mapping, opts.base);
  const ParallelSaResult multi =
      runParallelAnnealing(*eval_, im_.mapping, opts);
  // Chain 0 replays the single chain exactly, so best-of-K can only match
  // or beat it.
  EXPECT_DOUBLE_EQ(multi.chainCosts[0], single.eval.cost);
  EXPECT_LE(multi.eval.cost, single.eval.cost + 1e-12);
}

TEST_F(ParallelSaTest, CountersAggregateAcrossChains) {
  const SaOptions base = fastOptions(1).base;
  const SaResult single = runSimulatedAnnealing(*eval_, im_.mapping, base);
  const ParallelSaResult multi =
      runParallelAnnealing(*eval_, im_.mapping, fastOptions(1, 3));
  // Chain 0 == the single run; the other two chains evaluate a comparable
  // amount, so totals land well above a single chain.
  EXPECT_GE(multi.evaluations, 3 * (single.evaluations / 2));
  EXPECT_GT(multi.evaluations, single.evaluations);
  EXPECT_GT(multi.seconds, 0.0);
}

TEST_F(ParallelSaTest, PerChainIterationsOverridesBase) {
  ParallelSaOptions opts = fastOptions(9, 2);
  opts.base.iterations = 50;
  opts.perChainIterations = 400;
  const ParallelSaResult r = runParallelAnnealing(*eval_, im_.mapping, opts);
  // 2 chains × (1 initial + up to 400 move evaluations); far more than the
  // 50-iteration base would allow.
  EXPECT_GT(r.evaluations, 2u * 50u);
  EXPECT_LE(r.evaluations, 2u * 401u);
}

TEST_F(ParallelSaTest, SpeculativeWorkersDoNotChangeAnyChain) {
  // Two-level parallelism: chains x per-chain speculative workers. A
  // chain is bit-identical at every worker count, so every split of the
  // thread budget — including the auto split (0) that hands leftover
  // threads to speculation — must reproduce the same ensemble.
  ParallelSaOptions plain = fastOptions(13, 2, 2);
  plain.speculativeWorkers = 1;
  ParallelSaOptions spec = fastOptions(13, 2, 2);
  spec.speculativeWorkers = 3;
  ParallelSaOptions autoSplit = fastOptions(13, 2, 6);  // 6 threads, 2 chains
  autoSplit.speculativeWorkers = 0;                     // -> 3 workers each
  // A glacial schedule keeps the acceptance rate low, so the speculative
  // chains actually run batches.
  for (ParallelSaOptions* opts : {&plain, &spec, &autoSplit}) {
    opts->base.initialTempFactor = 1e-6;
    opts->base.finalTemp = 1e-6;
  }
  const ParallelSaResult a = runParallelAnnealing(*eval_, im_.mapping, plain);
  const ParallelSaResult b = runParallelAnnealing(*eval_, im_.mapping, spec);
  const ParallelSaResult c =
      runParallelAnnealing(*eval_, im_.mapping, autoSplit);
  EXPECT_EQ(a.chainCosts, b.chainCosts);
  EXPECT_EQ(a.chainCosts, c.chainCosts);
  EXPECT_EQ(a.bestChain, b.bestChain);
  EXPECT_TRUE(a.solution == b.solution);
  EXPECT_TRUE(a.solution == c.solution);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.accepted, c.accepted);
}

TEST_F(ParallelSaTest, RejectsBadOptions) {
  ParallelSaOptions opts = fastOptions();
  opts.restarts = 0;
  EXPECT_THROW(runParallelAnnealing(*eval_, im_.mapping, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace ides
