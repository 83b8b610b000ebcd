// Randomized move sequences through EvalContext's change-propagation walk,
// checked move by move against the stateless full pass. Shared by the
// fixture-suite test (core) and the paper-instance test (integration).
//
// The move mix covers what the keep rule must survive: node re-maps,
// start-hint and message-hint moves, two-process moves, deadline-missing
// trials, trials the scheduler cannot place, exact re-reads, rejected
// moves (the reference drifts away from the accepted solution), hints
// that name the wrong graph, and an EvalContextPool context that falls at
// least five accepted moves behind before it evaluates again. Every other
// move and every other catch-up also read the slack output, which the
// context writes from the record snapshot its walks edit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "model/system_model.h"
#include "sched/list_scheduler.h"
#include "util/rng.h"

namespace ides::testing {

/// Bit-identical results: every field, doubles compared exactly.
inline void expectSameEvalResult(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.placed, b.placed);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
  EXPECT_EQ(a.lateness, b.lateness);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.metrics.c1p, b.metrics.c1p);
  EXPECT_EQ(a.metrics.c1m, b.metrics.c1m);
  EXPECT_EQ(a.metrics.c2p, b.metrics.c2p);
  EXPECT_EQ(a.metrics.c2mBytes, b.metrics.c2mBytes);
}

/// Slack snapshots agree: node gaps and every bus-chunk field.
inline void expectSameSlack(const SlackInfo& a, const SlackInfo& b) {
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.busBytesPerTick, b.busBytesPerTick);
  EXPECT_EQ(a.nodeFree, b.nodeFree);
  ASSERT_EQ(a.busChunks.size(), b.busChunks.size());
  for (std::size_t i = 0; i < b.busChunks.size(); ++i) {
    EXPECT_EQ(a.busChunks[i].slotIndex, b.busChunks[i].slotIndex);
    EXPECT_EQ(a.busChunks[i].round, b.busChunks[i].round);
    EXPECT_EQ(a.busChunks[i].start, b.busChunks[i].start);
    EXPECT_EQ(a.busChunks[i].freeTicks, b.busChunks[i].freeTicks);
  }
}

/// What a fuzzWalk run exercised, so a test can require coverage.
struct WalkFuzzStats {
  int moves = 0;
  int feasible = 0;
  int lateTrials = 0;  ///< trials whose start hint aims past the deadline
  int missed = 0;      ///< placed, with deadline misses
  int unplaced = 0;
  int rejected = 0;
  int lyingHints = 0;
  int staleCatchUps = 0;  ///< lagging context, >= 5 accepted moves behind
  int slackChecks = 0;    ///< feasible results whose slack output was read
  /// Placed walks in which a re-placed job's new interval overlaps another
  /// re-placed job's old one on the same node: the commit must release
  /// before it occupies, and the gap the new record splits is the one the
  /// old record's release merged.
  int crossedMoves = 0;
  /// Jobs a placed walk kept after an earlier job changed, with a bus input
  /// in a later round than the first its scan read: rule 4's stored range
  /// spans more than one round.
  int multiRoundKeeps = 0;
};

/// Each commit position's input messages in `messages`, in input order.
inline std::vector<std::vector<ScheduledMessage>> inputsByJob(
    const SolutionEvaluator& ev, const std::vector<ScheduledMessage>& messages,
    std::size_t jobCount) {
  std::vector<std::vector<ScheduledMessage>> inputs(jobCount);
  for (const ScheduledMessage& sm : messages) {
    const ProcessId dst = ev.system().message(sm.mid).dst;
    inputs[ev.jobIndexOf(dst, sm.instance)].push_back(sm);
  }
  return inputs;
}

/// Counts the two walk shapes of WalkFuzzStats in the placed walk that
/// turned the log (`oldProcs`, `oldMsgs`) into `c`'s log for `solution`.
/// A job whose record and inputs are unchanged counts as kept, and the
/// first round its scan read is worked out from the messages' sources.
inline void countWalkShapes(const SolutionEvaluator& ev,
                            const std::vector<ScheduledProcess>& oldProcs,
                            const std::vector<ScheduledMessage>& oldMsgs,
                            const EvalContext& c,
                            const MappingSolution& solution,
                            WalkFuzzStats& stats) {
  const std::vector<ScheduledProcess>& procs = c.processes();
  const std::size_t jobs = procs.size();
  const auto oldIn = inputsByJob(ev, oldMsgs, jobs);
  const auto newIn = inputsByJob(ev, c.messages(), jobs);

  std::vector<std::size_t> moved;
  for (std::size_t pos = 0; pos < jobs; ++pos) {
    if (procs[pos].node != oldProcs[pos].node ||
        procs[pos].start != oldProcs[pos].start) {
      moved.push_back(pos);
    }
  }
  bool crossed = false;
  for (const std::size_t a : moved) {
    for (const std::size_t b : moved) {
      crossed = crossed || (a != b && procs[a].node == oldProcs[b].node &&
                            procs[a].start < oldProcs[b].end &&
                            oldProcs[b].start < procs[a].end);
    }
  }
  if (crossed) ++stats.crossedMoves;

  const auto unchanged = [&](std::size_t pos) {
    return procs[pos] == oldProcs[pos] && newIn[pos] == oldIn[pos];
  };
  std::size_t pos = 0;
  while (pos < jobs && unchanged(pos)) ++pos;
  const SystemModel& sys = ev.system();
  const TdmaBus& bus = ev.baseline().bus();
  for (++pos; pos < jobs; ++pos) {
    if (!unchanged(pos)) continue;
    for (const ScheduledMessage& sm : newIn[pos]) {
      const Message& msg = sys.message(sm.mid);
      const Time srcEnd = procs[ev.jobIndexOf(msg.src, sm.instance)].end;
      const Time ready = messageReady(srcEnd, solution.messageHint(sm.mid),
                                      sm.instance, sys.graph(msg.graph).period);
      const std::int64_t firstRound =
          bus.firstRoundAtOrAfter(sm.slotIndex, std::max<Time>(ready, 0));
      if (sm.round > firstRound) {
        ++stats.multiRoundKeeps;
        break;
      }
    }
  }
}

/// Runs `moves` random moves from `initial` (which must evaluate placed).
/// After every evaluation the result must equal SolutionEvaluator::
/// evaluate bit for bit; after every feasible one the context's log must
/// equal a fresh context's full pass and, on odd moves and even catch-ups
/// (chosen by index, so the move sequence draws nothing extra), its slack
/// output the full pass's.
inline WalkFuzzStats fuzzWalk(const SolutionEvaluator& ev,
                              const MappingSolution& initial, int moves,
                              std::uint64_t seed) {
  const SystemModel& sys = ev.system();
  std::vector<ProcessId> procs;
  std::vector<MessageId> msgs;
  for (const GraphId g : ev.currentGraphs()) {
    const ProcessGraph& graph = sys.graph(g);
    procs.insert(procs.end(), graph.processes.begin(), graph.processes.end());
    msgs.insert(msgs.end(), graph.messages.begin(), graph.messages.end());
  }
  const Time horizon = sys.hyperperiod();

  WalkFuzzStats stats;
  EvalContextPool pool(ev, 2);
  EvalContext& ctx = pool[0];
  EvalContext& lagging = pool[1];
  Rng rng(seed);
  MappingSolution current = initial;
  EXPECT_TRUE(ctx.evaluate(current).placed);
  (void)lagging.evaluate(current);
  int behind = 0;  // accepted moves the lagging context has not seen

  const auto checkLog = [&ev](const EvalContext& c,
                              const MappingSolution& solution) {
    EvalContext fresh(ev);
    (void)fresh.evaluate(solution);
    EXPECT_EQ(c.processes(), fresh.processes());
    EXPECT_EQ(c.messages(), fresh.messages());
    EXPECT_EQ(c.arrivalBounds(), fresh.arrivalBounds());
  };
  const auto moveProcess = [&](MappingSolution& s, MoveHint& hint) {
    const ProcessId p = rng.pick(procs);
    const Process& proc = sys.process(p);
    const ProcessGraph& graph = sys.graph(proc.graph);
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      const auto allowed = proc.allowedNodes();
      s.setNode(p, allowed[rng.index(allowed.size())]);
      s.setStartHint(p, 0);
    } else if (dice < 0.85) {
      const Time maxHint =
          std::max<Time>(0, graph.deadline - proc.wcetOn(s.nodeOf(p)));
      s.setStartHint(p, maxHint > 0 ? rng.uniformInt(0, maxHint) : 0);
    } else if (dice < 0.95) {
      // Ends near or past the deadline: late when an instance finds no
      // room before it, unplaced when the last one runs out of horizon
      // (always, where a graph's deadline is its period).
      const Time wcet = proc.wcetOn(s.nodeOf(p));
      s.setStartHint(p, std::max<Time>(0, graph.deadline - wcet -
                                              rng.uniformInt(-2, 2 * wcet)));
      ++stats.lateTrials;
    } else {
      // First instance cannot start inside the horizon: unplaced.
      s.setStartHint(p, horizon);
    }
    hint.graph = proc.graph;
    hint.process = p;
  };
  const auto moveMessage = [&](MappingSolution& s, MoveHint& hint) {
    const MessageId m = rng.pick(msgs);
    const ProcessGraph& graph = sys.graph(sys.message(m).graph);
    s.setMessageHint(m, rng.uniformInt(0, graph.deadline - 1));
    hint.graph = graph.id;
    hint.message = m;
  };

  for (int i = 0; i < moves; ++i) {
    MappingSolution trial = current;
    MoveHint hint;
    const double dice = rng.uniform01();
    if (dice < 0.6 || msgs.empty()) {
      moveProcess(trial, hint);
    } else if (dice < 0.85) {
      moveMessage(trial, hint);
    } else if (dice < 0.95) {
      MoveHint second;
      moveProcess(trial, hint);
      moveProcess(trial, second);
    }  // else: an exact re-read of the accepted solution
    if (rng.chance(0.1)) {
      // A lying hint: the move is elsewhere, or nowhere.
      hint.graph = rng.chance(0.5) ? ev.currentGraphs().back() : GraphId{};
      ++stats.lyingHints;
    }

    const bool readSlack = i % 2 == 1;
    SlackInfo gotSlack;
    SlackInfo wantSlack;
    const std::vector<ScheduledProcess> oldProcs = ctx.processes();
    const std::vector<ScheduledMessage> oldMsgs = ctx.messages();
    const EvalResult got = readSlack ? ctx.evaluate(trial, nullptr, &gotSlack)
                                     : ctx.evaluate(trial, hint);
    const EvalResult want =
        ev.evaluate(trial, nullptr, readSlack ? &wantSlack : nullptr);
    expectSameEvalResult(got, want);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch at move " << i << " (seed " << seed
                    << ")";
      return stats;
    }
    ++stats.moves;
    if (want.placed) countWalkShapes(ev, oldProcs, oldMsgs, ctx, trial, stats);
    if (!want.placed) {
      ++stats.unplaced;
    } else if (!want.feasible) {
      ++stats.missed;
    } else {
      ++stats.feasible;
      checkLog(ctx, trial);
      if (readSlack) {
        expectSameSlack(gotSlack, wantSlack);
        ++stats.slackChecks;
      }
    }

    if (want.placed && rng.chance(0.5)) {
      current = std::move(trial);
      ++behind;
    } else {
      ++stats.rejected;
    }
    if (behind >= 5 && rng.chance(0.3)) {
      const bool lateSlack = stats.staleCatchUps % 2 == 0;
      SlackInfo lateGot;
      SlackInfo lateWant;
      const std::vector<ScheduledProcess> lateProcs = lagging.processes();
      const std::vector<ScheduledMessage> lateMsgs = lagging.messages();
      const EvalResult late =
          lateSlack ? lagging.evaluate(current, nullptr, &lateGot)
                    : lagging.evaluate(current, MoveHint{});
      const EvalResult full =
          ev.evaluate(current, nullptr, lateSlack ? &lateWant : nullptr);
      expectSameEvalResult(late, full);
      if (full.placed) {
        countWalkShapes(ev, lateProcs, lateMsgs, lagging, current, stats);
      }
      if (full.feasible) {
        checkLog(lagging, current);
        if (lateSlack) {
          expectSameSlack(lateGot, lateWant);
          ++stats.slackChecks;
        }
      }
      ++stats.staleCatchUps;
      behind = 0;
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "log or lagging mismatch at move " << i << " (seed "
                    << seed << ")";
      return stats;
    }
  }
  return stats;
}

/// The coverage every fuzzWalk caller requires of its run. Placed-but-late
/// results are the instance's business (see the late trials above), so
/// callers whose instance produces them assert `missed` themselves.
inline void expectWalkCoverage(const WalkFuzzStats& stats, int moves) {
  EXPECT_EQ(stats.moves, moves);
  EXPECT_GT(stats.feasible, 0);
  EXPECT_GT(stats.lateTrials, 0);
  EXPECT_GT(stats.unplaced, 0);
  EXPECT_GT(stats.rejected, 0);
  EXPECT_GT(stats.lyingHints, 0);
  EXPECT_GT(stats.staleCatchUps, 0);
  EXPECT_GT(stats.slackChecks, 0);
  EXPECT_GT(stats.crossedMoves, 0);
  EXPECT_GT(stats.multiRoundKeeps, 0);
}

}  // namespace ides::testing
