// EvalContext: the change-propagation walk must be bit-identical to the
// stateless full-pass evaluator — for arbitrary move sequences (with
// rejected moves, i.e. a reference that drifts from the accepted solution,
// and MH's refresh of the slack and the schedule log after accepted ones),
// end to end through SA / PSA against the plain full-pass reference chain,
// and at the keep rule's boundaries.
#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/initial_mapping.h"
#include "core/parallel_annealing.h"
#include "core/simulated_annealing.h"
#include "model/system_model.h"
#include "obs/telemetry.h"
#include "reference_annealing.h"
#include "tgen/benchmark_suite.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "walk_fuzz.h"

namespace ides {
namespace {

using ides::testing::expectSameSlack;

/// A loaded instance whose current application spans several graphs, so
/// walks start inside and between graphs.
Suite multiGraphSuite(std::uint64_t seed = 7) {
  SuiteConfig cfg = ides::testing::smallSuiteConfig(60, 36);
  cfg.currentGraphSize = 10;  // 36 processes -> 4 current graphs
  return buildSuite(cfg, seed);
}

FutureProfile profileOf(const Suite& suite) { return suite.profile; }

class EvalContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = std::make_unique<Suite>(multiGraphSuite());
    frozen_ = std::make_unique<FrozenBase>(
        freezeExistingApplications(suite_->system));
    ASSERT_TRUE(frozen_->feasible);
    evaluator_ = std::make_unique<SolutionEvaluator>(
        suite_->system, frozen_->state, profileOf(*suite_), MetricWeights{});
    PlatformState state = frozen_->state;
    const ScheduleOutcome im = initialMapping(suite_->system, state);
    ASSERT_TRUE(im.feasible);
    initial_ = im.mapping;
    ASSERT_GE(evaluator_->currentGraphs().size(), 3u)
        << "instance too small to exercise walks across graphs";
  }

  /// One random SA-style move; returns the hint describing it.
  MoveHint randomMove(MappingSolution& solution, Rng& rng) const {
    const SystemModel& sys = suite_->system;
    std::vector<ProcessId> procs;
    std::vector<MessageId> msgs;
    for (GraphId g : evaluator_->currentGraphs()) {
      const ProcessGraph& graph = sys.graph(g);
      procs.insert(procs.end(), graph.processes.begin(),
                   graph.processes.end());
      msgs.insert(msgs.end(), graph.messages.begin(), graph.messages.end());
    }
    MoveHint hint;
    const double dice = rng.uniform01();
    if (dice < 0.45) {
      const ProcessId p = rng.pick(procs);
      const auto allowed = sys.process(p).allowedNodes();
      solution.setNode(p, allowed[rng.index(allowed.size())]);
      solution.setStartHint(p, 0);
      hint.graph = sys.process(p).graph;
      hint.process = p;
    } else if (dice < 0.8 || msgs.empty()) {
      const ProcessId p = rng.pick(procs);
      const Process& proc = sys.process(p);
      const ProcessGraph& graph = sys.graph(proc.graph);
      const Time maxHint =
          std::max<Time>(0, graph.deadline - proc.wcetOn(solution.nodeOf(p)));
      solution.setStartHint(p,
                            maxHint > 0 ? rng.uniformInt(0, maxHint) : 0);
      hint.graph = proc.graph;
      hint.process = p;
    } else {
      const MessageId m = rng.pick(msgs);
      const ProcessGraph& graph = sys.graph(sys.message(m).graph);
      solution.setMessageHint(m, rng.uniformInt(0, graph.deadline - 1));
      hint.graph = graph.id;
      hint.message = m;
    }
    return hint;
  }

  /// A provable zero-delta move: a start-hint bump on a process whose
  /// arrival bound shadows the new hint on every instance
  /// (k*P + hint <= arrival), so the scheduler never reads it. Applies the
  /// move to `solution` and returns its hint; the hint is invalid when no
  /// process of the instance qualifies. Reads the arrival bounds of `ctx`,
  /// which must have just evaluated `solution`.
  MoveHint arrivalShadowedMove(const EvalContext& ctx,
                               MappingSolution& solution) const {
    const SystemModel& sys = suite_->system;
    for (GraphId g : evaluator_->currentGraphs()) {
      const ProcessGraph& graph = sys.graph(g);
      const std::int64_t instances = sys.instanceCount(g);
      for (const ProcessId p : graph.processes) {
        Time shadow = graph.deadline;  // min over instances of arrival - k*P
        for (std::int64_t k = 0; k < instances; ++k) {
          const Time arrival = ctx.arrivalBounds()[evaluator_->jobIndexOf(
              p, static_cast<std::int32_t>(k))];
          shadow = std::min(shadow, arrival - k * graph.period);
        }
        if (shadow > 0 && shadow != solution.startHint(p)) {
          solution.setStartHint(p, shadow);
          MoveHint hint;
          hint.graph = g;
          hint.process = p;
          return hint;
        }
      }
    }
    return {};
  }

  static void expectBitIdentical(const EvalResult& a, const EvalResult& b) {
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.lateness, b.lateness);
    EXPECT_EQ(a.cost, b.cost);            // exact, not near
    EXPECT_EQ(a.objective, b.objective);  // exact, not near
    EXPECT_EQ(a.metrics.c1p, b.metrics.c1p);
    EXPECT_EQ(a.metrics.c1m, b.metrics.c1m);
    EXPECT_EQ(a.metrics.c2p, b.metrics.c2p);
    EXPECT_EQ(a.metrics.c2mBytes, b.metrics.c2mBytes);
  }

  /// Schedule and slack outputs agree entry for entry.
  static void expectSameOutputs(const ScheduleOutcome& co,
                                const SlackInfo& cs,
                                const ScheduleOutcome& eo,
                                const SlackInfo& es) {
    EXPECT_EQ(co.feasible, eo.feasible);
    ASSERT_EQ(co.schedule.processEntryCount(),
              eo.schedule.processEntryCount());
    for (const ScheduledProcess& sp : eo.schedule.processes()) {
      EXPECT_TRUE(co.schedule.processEntry(sp.pid, sp.instance) == sp);
    }
    ASSERT_EQ(co.schedule.messages().size(), eo.schedule.messages().size());
    for (const ScheduledMessage& sm : eo.schedule.messages()) {
      EXPECT_TRUE(co.schedule.messageEntry(sm.mid, sm.instance) == sm);
    }
    expectSameSlack(cs, es);
  }

  std::unique_ptr<Suite> suite_;
  std::unique_ptr<FrozenBase> frozen_;
  std::unique_ptr<SolutionEvaluator> evaluator_;
  MappingSolution initial_;
};

TEST_F(EvalContextTest, FullPassMatchesSolutionEvaluator) {
  EvalContext ctx(*evaluator_);
  expectBitIdentical(ctx.evaluate(initial_), evaluator_->evaluate(initial_));
}

TEST_F(EvalContextTest, RandomizedMoveSequenceIsBitIdentical) {
  // Metropolis-style walk with rejections: the context's reference drifts
  // away from the accepted solution, which the diff against the reference
  // must catch. Every feasible accept also
  // re-reads the accepted solution with its schedule and slack, then with
  // its slack alone, as MH does after an applied move.
  EvalContext ctx(*evaluator_);
  Rng rng(99);
  MappingSolution current = initial_;
  ASSERT_TRUE(ctx.evaluate(current).feasible);

  int refreshes = 0;
  for (int step = 0; step < 250; ++step) {
    MappingSolution trial = current;
    const MoveHint hint = randomMove(trial, rng);
    const EvalResult incremental = ctx.evaluate(trial, hint);
    const EvalResult reference = evaluator_->evaluate(trial);
    expectBitIdentical(incremental, reference);
    if (!rng.chance(0.4)) continue;  // reject
    current = std::move(trial);
    // MH's incumbent is always feasible, so that is where its refresh runs
    // (an unplaced pass keeps only the graphs before the failed one).
    if (!reference.feasible) continue;
    ScheduleOutcome co, eo;
    SlackInfo cs, es;
    const EvalResult full = evaluator_->evaluate(current, &eo, &es);
    expectBitIdentical(ctx.evaluate(current, &co, &cs), full);
    expectSameOutputs(co, cs, eo, es);
    // MH's form: slack only, and its analysis reads the context's log,
    // which is the full pass's schedule in its commit order.
    SlackInfo ms;
    expectBitIdentical(ctx.evaluate(current, nullptr, &ms), full);
    expectSameSlack(ms, es);
    EXPECT_EQ(ctx.processes(), eo.schedule.processes());
    EXPECT_EQ(ctx.messages(), eo.schedule.messages());
    ++refreshes;
  }
  EXPECT_GT(refreshes, 0);
  // The walk must have actually skipped work, not silently re-placed every
  // job it visited.
  EXPECT_LT(ctx.jobsReplaced(), ctx.jobsVisited());
}

TEST_F(EvalContextTest, ArrivalShadowedHintMoveIsBitIdentical) {
  // A start-hint move the scheduler never reads re-schedules from the
  // restart graph like any other move, and must come out bit-identical.
  EvalContext ctx(*evaluator_);
  ASSERT_TRUE(ctx.evaluate(initial_).feasible);

  MappingSolution trial = initial_;
  const MoveHint hint = arrivalShadowedMove(ctx, trial);
  ASSERT_TRUE(hint.graph.valid())
      << "instance has no arrival-shadowed process to exercise";
  expectBitIdentical(ctx.evaluate(trial, hint), evaluator_->evaluate(trial));

  // The context must keep serving exact results for follow-up moves (the
  // walk left the reference, its positioned view and the metrics snapshot
  // whole).
  Rng rng(17);
  MappingSolution current = trial;
  for (int step = 0; step < 40; ++step) {
    MappingSolution next = current;
    const MoveHint h = randomMove(next, rng);
    expectBitIdentical(ctx.evaluate(next, h), evaluator_->evaluate(next));
    if (rng.chance(0.5)) current = std::move(next);
  }
}

TEST_F(EvalContextTest, OnlyAnExactReReadIsServedFromTheCache) {
  // The one cached-result path: the solution last evaluated, evaluated
  // again. zeroDeltaServes() and ides_eval_rewind_depth_total
  // {depth="zero_delta"} count it, and nothing else.
  const bool wasEnabled = telemetryEnabled();
  setTelemetryEnabled(true);
  EvalContext ctx(*evaluator_);
  ASSERT_TRUE(ctx.evaluate(initial_).feasible);
  Counter& zeroDelta = telemetry().counter(
      "ides_eval_rewind_depth_total", "", {{"depth", "zero_delta"}});
  const auto expectServes = [&](std::size_t serves, std::uint64_t counted) {
    EXPECT_EQ(ctx.zeroDeltaServes(), serves);
    EXPECT_EQ(zeroDelta.value(), counted);
  };
  const std::size_t serves = ctx.zeroDeltaServes();
  const std::uint64_t counted = zeroDelta.value();

  // Re-read with a hint, then without one (the output overload).
  MoveHint anyGraph;
  anyGraph.graph = evaluator_->currentGraphs().back();
  expectBitIdentical(ctx.evaluate(initial_, anyGraph),
                     evaluator_->evaluate(initial_));
  expectServes(serves + 1, counted + 1);
  SlackInfo slack;
  expectBitIdentical(ctx.evaluate(initial_, nullptr, &slack),
                     evaluator_->evaluate(initial_));
  expectServes(serves + 2, counted + 2);

  // A schedule-identical move is re-scheduled, not served.
  MappingSolution trial = initial_;
  const MoveHint hint = arrivalShadowedMove(ctx, trial);
  ASSERT_TRUE(hint.graph.valid())
      << "instance has no arrival-shadowed process to exercise";
  expectBitIdentical(ctx.evaluate(trial, hint), evaluator_->evaluate(trial));
  expectServes(serves + 2, counted + 2);
  setTelemetryEnabled(wasEnabled);
}

TEST_F(EvalContextTest, PoolResyncAfterPartialRewindIsBitIdentical) {
  // The speculative pool's substrate: several contexts share one
  // evaluator, each evaluates a rotating subset of trials against its own
  // (stale) reference, and re-aligns lazily — or eagerly, by evaluating
  // the committed move — after a move commits. Every context must stay
  // bit-identical to the stateless evaluator through randomized
  // accept/reject sequences, including re-alignments whose walks start
  // mid-graph.
  for (const std::size_t workers : {std::size_t{2}, std::size_t{3},
                                    std::size_t{4}}) {
    EvalContextPool pool(*evaluator_, workers);
    ASSERT_EQ(pool.size(), workers);
    const auto realign = [&pool](const MappingSolution& solution,
                                 const MoveHint& hint) {
      for (std::size_t w = 0; w < pool.size(); ++w) {
        pool[w].evaluate(solution, hint);
      }
    };
    realign(initial_, MoveHint{});  // invalid hint degrades to full pass

    Rng rng(4100 + workers);
    MappingSolution current = initial_;
    for (int step = 0; step < 120; ++step) {
      MappingSolution trial = current;
      const MoveHint hint = randomMove(trial, rng);
      // Rotate the evaluating context like the speculative pool does; the
      // others fall behind and catch up on their next evaluation.
      EvalContext& ctx = pool[static_cast<std::size_t>(step) % workers];
      const EvalResult inc = ctx.evaluate(trial, hint);
      expectBitIdentical(inc, evaluator_->evaluate(trial));
      if (rng.chance(0.5)) {
        current = std::move(trial);
        // Sometimes re-align the whole pool eagerly (each context walks
        // from its first difference to the committed solution); otherwise
        // leave the catch-up lazy.
        if (rng.chance(0.3)) realign(current, hint);
      }
    }
    // After the walk every context — however stale — must converge on the
    // committed solution with an exact result.
    const EvalResult reference = evaluator_->evaluate(current);
    for (std::size_t w = 0; w < workers; ++w) {
      expectBitIdentical(pool[w].evaluate(current), reference);
    }
  }
}

TEST_F(EvalContextTest, OutputsMatchFullEvaluator) {
  EvalContext ctx(*evaluator_);
  ScheduleOutcome co, eo;
  SlackInfo cs, es;
  const EvalResult cr = ctx.evaluate(initial_, &co, &cs);
  const EvalResult er = evaluator_->evaluate(initial_, &eo, &es);
  expectBitIdentical(cr, er);
  ASSERT_EQ(co.schedule.processEntryCount(), eo.schedule.processEntryCount());
  for (const ScheduledProcess& sp : eo.schedule.processes()) {
    const ScheduledProcess& other =
        co.schedule.processEntry(sp.pid, sp.instance);
    EXPECT_EQ(other.node, sp.node);
    EXPECT_EQ(other.start, sp.start);
    EXPECT_EQ(other.end, sp.end);
  }
  EXPECT_EQ(cs.nodeFree.size(), es.nodeFree.size());
  for (std::size_t n = 0; n < es.nodeFree.size(); ++n) {
    EXPECT_EQ(cs.nodeFree[n], es.nodeFree[n]);
  }
  // Re-reading the same solution serves the cached state.
  const std::size_t replacedBefore = ctx.jobsReplaced();
  ScheduleOutcome again;
  expectBitIdentical(ctx.evaluate(initial_, &again, nullptr), er);
  EXPECT_EQ(ctx.jobsReplaced(), replacedBefore);
}

TEST_F(EvalContextTest, StaleHintIsCorrectedNotTrusted) {
  // Claim a move touched the LAST graph while actually changing the FIRST:
  // the context must detect the earlier difference and restart there.
  EvalContext ctx(*evaluator_);
  ASSERT_TRUE(ctx.evaluate(initial_).feasible);

  const GraphId firstGraph = evaluator_->currentGraphs().front();
  const GraphId lastGraph = evaluator_->currentGraphs().back();
  MappingSolution trial = initial_;
  const ProcessId victim = suite_->system.graph(firstGraph).processes.front();
  trial.setStartHint(victim, trial.startHint(victim) + 3);

  MoveHint lyingHint;
  lyingHint.graph = lastGraph;
  expectBitIdentical(ctx.evaluate(trial, lyingHint),
                     evaluator_->evaluate(trial));
}

TEST_F(EvalContextTest, ThrowingEvaluationLeavesTheContextUsable) {
  // A walk that re-places jobs and then meets a mapping entry with no
  // valid node throws like the full pass, after undoing its record
  // changes: the reference, its log and the free-capacity snapshot stay
  // those of the last placed solution.
  const SystemModel& sys = suite_->system;
  EvalContext ctx(*evaluator_);
  SlackInfo before;
  ASSERT_TRUE(ctx.evaluate(initial_, nullptr, &before).feasible);

  // Re-map the first graph's first process to a node where the full pass
  // still places the first graph, so the walk re-places jobs first.
  const ProcessId first =
      sys.graph(evaluator_->currentGraphs().front()).processes.front();
  MappingSolution bad = initial_;
  bool remapped = false;
  for (const NodeId n : sys.process(first).allowedNodes()) {
    if (n == initial_.nodeOf(first)) continue;
    bad.setNode(first, n);
    if (evaluator_->evaluate(bad).placed) {
      remapped = true;
      break;
    }
  }
  ASSERT_TRUE(remapped) << "no alternative node places the first graph";
  const ProcessId last =
      sys.graph(evaluator_->currentGraphs().back()).processes.back();
  bad.setNode(last, NodeId{});
  EXPECT_THROW((void)evaluator_->evaluate(bad), std::invalid_argument);
  EXPECT_THROW((void)ctx.evaluate(bad), std::invalid_argument);

  SlackInfo after;
  expectBitIdentical(ctx.evaluate(initial_, nullptr, &after),
                     evaluator_->evaluate(initial_));
  expectSameSlack(after, before);
  EvalContext fresh(*evaluator_);
  (void)fresh.evaluate(initial_);
  EXPECT_EQ(ctx.processes(), fresh.processes());
  EXPECT_EQ(ctx.messages(), fresh.messages());

  Rng rng(61);
  MappingSolution current = initial_;
  for (int step = 0; step < 60; ++step) {
    MappingSolution next = current;
    const MoveHint hint = randomMove(next, rng);
    expectBitIdentical(ctx.evaluate(next, hint), evaluator_->evaluate(next));
    if (rng.chance(0.5)) current = std::move(next);
  }
}

TEST_F(EvalContextTest, WalkMatchesFullPassUnderAdversarialMoves) {
  // 2000 moves of every kind the keep rule must survive (see
  // walk_fuzz.h), each bit-identical to the full pass, with the log of
  // every feasible one equal to a fresh context's.
  constexpr int kMoves = 2000;
  const ides::testing::WalkFuzzStats stats =
      ides::testing::fuzzWalk(*evaluator_, initial_, kMoves, 2026);
  ides::testing::expectWalkCoverage(stats, kMoves);
  EXPECT_GT(stats.missed, 0);  // this instance also yields late schedules
}

TEST_F(EvalContextTest, SaIncrementalMatchesFullPass) {
  // The chain on delta evaluation (plus the zero-delta filter) against the
  // plain chain on the stateless full pass.
  SaOptions opts;
  opts.seed = 5;
  opts.iterations = 1200;
  const SaResult fast = runSimulatedAnnealing(*evaluator_, initial_, opts);
  const SaResult slow =
      ides::testing::referenceAnnealing(*evaluator_, initial_, opts);
  EXPECT_EQ(fast.eval.cost, slow.eval.cost);
  EXPECT_EQ(fast.evaluations, slow.evaluations);
  EXPECT_EQ(fast.accepted, slow.accepted);
  EXPECT_TRUE(fast.solution == slow.solution);
  // The zero-delta filter replays proposals without evaluating — but the
  // evaluation/acceptance counters above must stay invariant to it.
  EXPECT_EQ(fast.proposals, slow.proposals);
  EXPECT_GT(fast.zeroDeltaSkips, 0u);
}

TEST_F(EvalContextTest, PsaIncrementalMatchesFullPass) {
  ParallelSaOptions opts;
  opts.base.seed = 5;
  opts.base.iterations = 400;
  opts.restarts = 3;
  opts.threads = 2;
  const ParallelSaResult fast =
      runParallelAnnealing(*evaluator_, initial_, opts);
  // Chain 0 runs the base options verbatim, so it must match the plain
  // full-pass chain; the winner's incumbent must re-evaluate to the
  // reported result on the full pass.
  const SaResult chain0 =
      ides::testing::referenceAnnealing(*evaluator_, initial_, opts.base);
  ASSERT_EQ(fast.chainCosts.size(), 3u);
  EXPECT_EQ(fast.chainCosts[0], chain0.eval.cost);
  expectBitIdentical(fast.eval, evaluator_->evaluate(fast.solution));
  if (fast.bestChain == 0) {
    EXPECT_TRUE(fast.solution == chain0.solution);
  }
}

// ---- keep-rule boundaries on hand-built instances --------------------------

FutureProfile boundaryProfile() {
  FutureProfile p;
  p.tmin = 100;
  p.tneed = 30;
  p.bneedBytes = 8;
  p.wcetDistribution = DiscreteDistribution({{10, 0.5}, {20, 0.5}});
  p.messageSizeDistribution = DiscreteDistribution({{2, 0.5}, {4, 0.5}});
  return p;
}

/// Evaluates `from`, then `to`, on one context; returns the jobs the second
/// walk re-placed. The result must match the full pass and the log a fresh
/// context's.
std::size_t replacedByMove(const SolutionEvaluator& ev,
                           const MappingSolution& from,
                           const MappingSolution& to) {
  EvalContext ctx(ev);
  EXPECT_TRUE(ctx.evaluate(from).feasible);
  const std::size_t before = ctx.jobsReplaced();
  const EvalResult got = ctx.evaluate(to);
  EvalContext fresh(ev);
  ides::testing::expectSameEvalResult(got, fresh.evaluate(to));
  ides::testing::expectSameEvalResult(got, ev.evaluate(to));
  EXPECT_EQ(ctx.processes(), fresh.processes());
  EXPECT_EQ(ctx.messages(), fresh.messages());
  return ctx.jobsReplaced() - before;
}

TEST(EvalContextKeepRule, NodeWindowIsHalfOpen) {
  // A (wcet 20) commits before B (wcet 10), both on node 0, no messages.
  // Moving A re-places it; B keeps its record exactly when neither A's old
  // nor its new interval overlaps [est, end) of B, est being B's hint.
  SystemModel sys(ides::testing::twoNodeArch());
  const ApplicationId app = sys.addApplication("new", AppKind::Current);
  const GraphId g = sys.addGraph(app, 200);
  const ProcessId a = sys.addProcess(g, "A", {20, 20});
  const ProcessId b = sys.addProcess(g, "B", {10, 10});
  sys.finalize();
  const FrozenBase frozen = freezeExistingApplications(sys);
  ASSERT_TRUE(frozen.feasible);
  const SolutionEvaluator ev(sys, frozen.state, boundaryProfile(),
                             MetricWeights{});
  ASSERT_LT(ev.jobIndexOf(a, 0), ev.jobIndexOf(b, 0));

  const auto mapping = [&sys, a, b](Time hintA, Time hintB) {
    MappingSolution m(sys);
    m.setNode(a, NodeId{0});
    m.setNode(b, NodeId{0});
    m.setStartHint(a, hintA);
    m.setStartHint(b, hintB);
    return m;
  };
  // A's old record [100, 120) ends exactly at B's est 120: B stays at
  // [120, 130) and is kept.
  EXPECT_EQ(replacedByMove(ev, mapping(100, 120), mapping(0, 120)), 1u);
  // B's est 119 lies inside [100, 120): the first fit started there, so
  // B is re-placed (to [119, 129)).
  EXPECT_EQ(replacedByMove(ev, mapping(100, 119), mapping(0, 119)), 2u);
  // The same for A's new record.
  EXPECT_EQ(replacedByMove(ev, mapping(0, 120), mapping(100, 120)), 1u);
  EXPECT_EQ(replacedByMove(ev, mapping(0, 119), mapping(100, 119)), 2u);
}

TEST(EvalContextKeepRule, BusScanCoversFirstToPlacedRound) {
  // Three nodes, slot 0 (node 0's) at [30r, 30r + 10): one 8-byte message
  // fills an occurrence. S1 -> D1 (m1) commits before S2 -> D2 (m2); S1
  // and S2 run on node 0, D1 on node 1, D2 on node 2, so only the bus
  // couples D1's move to D2.
  SystemModel sys(makeUniformArchitecture(3, 10, 1));
  const ApplicationId app = sys.addApplication("new", AppKind::Current);
  const GraphId g = sys.addGraph(app, 300);
  const ProcessId s1 = sys.addProcess(g, "S1", {10, 10, 10});
  const ProcessId d1 = sys.addProcess(g, "D1", {30, 30, 30});
  const ProcessId s2 = sys.addProcess(g, "S2", {10, 10, 10});
  const ProcessId d2 = sys.addProcess(g, "D2", {10, 10, 10});
  const MessageId m1 = sys.addMessage(g, s1, d1, 8);
  sys.addMessage(g, s2, d2, 8);
  sys.finalize();
  const FrozenBase frozen = freezeExistingApplications(sys);
  ASSERT_TRUE(frozen.feasible);
  const SolutionEvaluator ev(sys, frozen.state, boundaryProfile(),
                             MetricWeights{});
  ASSERT_LT(ev.jobIndexOf(d1, 0), ev.jobIndexOf(d2, 0));
  ASSERT_EQ(sys.architecture().bus().slotOfNode(NodeId{0}), 0u);

  const auto mapping = [&](Time hintM1) {
    MappingSolution m(sys);
    m.setNode(s1, NodeId{0});
    m.setNode(s2, NodeId{0});
    m.setNode(d1, NodeId{1});
    m.setNode(d2, NodeId{2});
    m.setMessageHint(m1, hintM1);
    return m;
  };
  // m1 in round 1 makes m2 (ready at 20) scan rounds 1..2. Moving m1 to
  // round 2 empties round 1, inside that scan: D2 is re-placed (m2 moves
  // to round 1).
  EXPECT_EQ(replacedByMove(ev, mapping(0), mapping(40)), 2u);
  // m1 in round 3 leaves m2 in round 1, scanning round 1 only. Moving m1
  // from round 3 to round 5 changes occurrences outside that scan: D2
  // keeps its records.
  EXPECT_EQ(replacedByMove(ev, mapping(70), mapping(130)), 1u);
}

}  // namespace
}  // namespace ides
