// Zero-delta filter property: every proposal the gap-fingerprint filter
// marks as schedule-identical must evaluate, on the stateless full pass, to
// exactly the current result — field by field, schedule entry by schedule
// entry. A seeded walk drives SaMoveProposer, ZeroDeltaFilter and an
// EvalContext with the default move mix on both determinism presets, and
// accepts some evaluated moves so the fingerprint is re-armed along the way.
#include "core/simulated_annealing.h"

#include <gtest/gtest.h>

#include <string>

#include "core/initial_mapping.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace ides {
namespace {

void expectSameResult(const EvalResult& a, const EvalResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.placed, b.placed) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses) << what;
  EXPECT_EQ(a.lateness, b.lateness) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.metrics.c1p, b.metrics.c1p) << what;
  EXPECT_EQ(a.metrics.c1m, b.metrics.c1m) << what;
  EXPECT_EQ(a.metrics.c2p, b.metrics.c2p) << what;
  EXPECT_EQ(a.metrics.c2mBytes, b.metrics.c2mBytes) << what;
}

void expectSameSchedule(const Schedule& a, const Schedule& b,
                        const std::string& what) {
  ASSERT_EQ(a.processEntryCount(), b.processEntryCount()) << what;
  for (const ScheduledProcess& sp : b.processes()) {
    EXPECT_TRUE(a.processEntry(sp.pid, sp.instance) == sp) << what;
  }
  ASSERT_EQ(a.messages().size(), b.messages().size()) << what;
  for (const ScheduledMessage& sm : b.messages()) {
    EXPECT_TRUE(a.messageEntry(sm.mid, sm.instance) == sm) << what;
  }
}

TEST(ZeroDeltaFilterProperty, SkippedProposalsEvaluateToTheCurrentResult) {
  SuiteConfig small = ides::testing::smallSuiteConfig(36, 12);
  small.nodeCount = 3;
  const struct {
    SuiteConfig config;
    std::uint64_t seed;
  } presets[] = {{ides::testing::smallSuiteConfig(), 11}, {small, 23}};

  for (int preset = 0; preset < 2; ++preset) {
    const Suite suite = buildSuite(presets[preset].config,
                                   presets[preset].seed);
    const FrozenBase frozen = freezeExistingApplications(suite.system);
    ASSERT_TRUE(frozen.feasible);
    const SolutionEvaluator evaluator(suite.system, frozen.state,
                                      suite.profile, MetricWeights{});
    PlatformState state = frozen.state;
    const ScheduleOutcome im = initialMapping(suite.system, state);
    ASSERT_TRUE(im.feasible);

    const SaMoveProposer proposer(evaluator, SaOptions{});
    ZeroDeltaFilter filter(evaluator);
    EvalContext ctx(evaluator);
    Rng rng(rngStreamSeed(1900 + preset, kSaProposalStream));

    MappingSolution current = im.mapping;
    ScheduleOutcome currentOutcome;
    EvalResult currentEval =
        evaluator.evaluate(current, &currentOutcome, nullptr);
    filter.captureAccepted(ctx, ctx.evaluate(current));

    std::size_t processSkips = 0;
    std::size_t messageSkips = 0;
    std::size_t rearms = 0;
    for (int step = 0; step < 1500; ++step) {
      const SaMove move = proposer.propose(current, rng);
      if (move.kind == SaMove::Kind::None) continue;
      MappingSolution trial = current;
      SaMoveProposer::apply(move, trial);
      if (filter.zeroDelta(move, current)) {
        const std::string what = "preset " + std::to_string(preset) +
                                 " step " + std::to_string(step);
        ScheduleOutcome outcome;
        expectSameResult(evaluator.evaluate(trial, &outcome, nullptr),
                         currentEval, what);
        expectSameSchedule(outcome.schedule, currentOutcome.schedule, what);
        ++(move.kind == SaMove::Kind::ProcessHint ? processSkips
                                                  : messageSkips);
        // Certain acceptance: the schedule, and so the fingerprint, stay.
        current = std::move(trial);
        continue;
      }
      const EvalResult r = ctx.evaluate(trial, move.evalHint);
      if (rng.chance(0.3)) {
        current = std::move(trial);
        currentEval = evaluator.evaluate(current, &currentOutcome, nullptr);
        filter.captureAccepted(ctx, r);
        ++rearms;
      }
    }
    EXPECT_GT(processSkips, 0u) << "preset " << preset;
    EXPECT_GT(messageSkips, 0u) << "preset " << preset;
    EXPECT_GT(rearms, 0u) << "preset " << preset;
  }
}

}  // namespace
}  // namespace ides
