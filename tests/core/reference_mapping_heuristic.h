// The MH loop the dense production implementation (core/mapping_heuristic)
// is diffed against: the same rounds, candidates and trials, written the
// straightforward way. Every round re-reads the incumbent through a full
// ScheduleOutcome, indexes its entries in hashed per-node boundary maps,
// scores processes in a hashed map, sorts every bus message to keep the
// longest few, sorts a node's gaps for every (candidate, target) pair and
// copies the whole solution for every trial. The production loop must
// reproduce it trial for trial: the same solution, cost bits, evaluation
// count, rounds and stop flag.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/mapping_heuristic.h"
#include "model/system_model.h"

namespace ides::testing {

namespace reference_mh {

constexpr double kEps = 1e-9;

struct Move {
  enum class Kind { Process, Message } kind = Kind::Process;
  ProcessId process;
  NodeId node;
  MessageId message;
  Time hint = 0;
};

/// Highest-potential processes: those bordering the smallest slack
/// fragments (C1 pressure) and those inside the worst Tmin window of the
/// most starved node (C2 pressure).
inline std::vector<ProcessId> selectProcessCandidates(
    const SystemModel& sys, const SolutionEvaluator& ev,
    const ScheduleOutcome& outcome, const SlackInfo& slack, int limit) {
  std::unordered_map<ProcessId, double> score;

  // Index current-application entries by node and boundary times.
  struct Boundary {
    std::unordered_map<Time, ProcessId> byStart;
    std::unordered_map<Time, ProcessId> byEnd;
  };
  std::vector<Boundary> perNode(sys.architecture().nodeCount());
  for (const ScheduledProcess& sp : outcome.schedule.processes()) {
    perNode[sp.node.index()].byStart.emplace(sp.start, sp.pid);
    perNode[sp.node.index()].byEnd.emplace(sp.end, sp.pid);
  }

  // C1 pressure: adjacency to small fragments scores inversely to the
  // fragment length.
  for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
    for (const Interval& gap : slack.nodeFree[n].intervals()) {
      const double s = 1.0 / (1.0 + static_cast<double>(gap.length()));
      auto creditTo = [&](auto& map, Time t) {
        auto it = map.find(t);
        if (it != map.end()) {
          score[it->second] = std::max(score[it->second], s);
        }
      };
      creditTo(perNode[n].byEnd, gap.start);   // entry ending at the gap
      creditTo(perNode[n].byStart, gap.end);   // entry starting after it
    }
  }

  // C2 pressure: every node's *worst* window is what the C2P sum is made
  // of, so every current-application process executing inside one is a
  // high-potential move candidate — evacuating it directly raises that
  // node's minimum. The starved the window, the higher the score.
  const Time tmin = ev.profile().tmin;
  const std::int64_t windows = slack.horizon / tmin;
  if (windows > 0) {
    for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
      std::int64_t worstWindow = 0;
      Time worstSlack = kTimeMax;
      for (std::int64_t w = 0; w < windows; ++w) {
        const Time s = slack.nodeSlackInWindow(n, w * tmin, (w + 1) * tmin);
        if (s < worstSlack) {
          worstSlack = s;
          worstWindow = w;
        }
      }
      const Interval window{worstWindow * tmin, (worstWindow + 1) * tmin};
      const double pressure =
          2.0 * static_cast<double>(tmin - worstSlack) /
          static_cast<double>(tmin);
      for (const ScheduledProcess& sp : outcome.schedule.processes()) {
        if (sp.node.index() == n &&
            Interval{sp.start, sp.end}.overlaps(window)) {
          score[sp.pid] += pressure;
        }
      }
    }
  }

  std::vector<std::pair<double, ProcessId>> ranked;
  ranked.reserve(score.size());
  for (const auto& [pid, s] : score) ranked.emplace_back(s, pid);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second.value < b.second.value;
  });

  std::vector<ProcessId> out;
  std::unordered_set<ProcessId> seen;
  for (const auto& [s, pid] : ranked) {
    if (static_cast<int>(out.size()) >= limit) break;
    out.push_back(pid);
    seen.insert(pid);
  }
  // Top up deterministically so early iterations (little adjacency yet)
  // still explore.
  if (static_cast<int>(out.size()) < limit) {
    for (GraphId g : ev.currentGraphs()) {
      for (ProcessId p : sys.graph(g).processes) {
        if (static_cast<int>(out.size()) >= limit) break;
        if (seen.insert(p).second) out.push_back(p);
      }
    }
  }
  return out;
}

/// Messages with the longest transmissions fragment the bus the most.
inline std::vector<MessageId> selectMessageCandidates(
    const ScheduleOutcome& outcome, int limit) {
  std::vector<const ScheduledMessage*> onBus;
  for (const ScheduledMessage& sm : outcome.schedule.messages()) {
    onBus.push_back(&sm);
  }
  std::sort(onBus.begin(), onBus.end(),
            [](const ScheduledMessage* a, const ScheduledMessage* b) {
              const Time la = a->end - a->start, lb = b->end - b->start;
              if (la != lb) return la > lb;
              return a->mid.value < b->mid.value;
            });
  std::vector<MessageId> out;
  std::unordered_set<MessageId> seen;
  for (const ScheduledMessage* sm : onBus) {
    if (static_cast<int>(out.size()) >= limit) break;
    if (seen.insert(sm->mid).second) out.push_back(sm->mid);
  }
  return out;
}

/// Per-node minimum window slack: the target-node ranking key. Moving work
/// onto the node with the most periodic headroom is the transformation with
/// the highest potential to raise C2P.
inline std::vector<Time> minWindowSlackPerNode(const SlackInfo& slack,
                                               Time tmin) {
  const std::int64_t windows = slack.horizon / tmin;
  std::vector<Time> result(slack.nodeFree.size(), 0);
  for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
    Time best = windows > 0 ? kTimeMax : 0;
    for (std::int64_t w = 0; w < windows; ++w) {
      best = std::min(best,
                      slack.nodeSlackInWindow(n, w * tmin, (w + 1) * tmin));
    }
    result[n] = best;
  }
  return result;
}

/// Starts of the largest `count` gaps, as period-relative hints.
inline std::vector<Time> gapHints(const IntervalSet& free, Time period,
                                  int count) {
  std::vector<Interval> gaps(free.intervals());
  std::sort(gaps.begin(), gaps.end(), [](const Interval& a, const Interval& b) {
    if (a.length() != b.length()) return a.length() > b.length();
    return a.start < b.start;
  });
  std::vector<Time> hints{0};
  auto addHint = [&hints](Time h) {
    if (std::find(hints.begin(), hints.end(), h) == hints.end()) {
      hints.push_back(h);
    }
  };
  for (const Interval& gap : gaps) {
    if (static_cast<int>(hints.size()) > 2 * count) break;
    // Both the front and the middle of a large gap are useful targets: the
    // front merges the moved process with the preceding busy block, the
    // middle spreads load across the gap's windows.
    addHint(gap.start % period);
    addHint((gap.start + gap.length() / 2) % period);
  }
  return hints;
}

}  // namespace reference_mh

inline MhResult referenceMappingHeuristic(const SolutionEvaluator& evaluator,
                                          const MappingSolution& initial,
                                          const MhOptions& options = {},
                                          EvalContext* scratch = nullptr) {
  using reference_mh::gapHints;
  using reference_mh::kEps;
  using reference_mh::minWindowSlackPerNode;
  using reference_mh::Move;
  using reference_mh::selectMessageCandidates;
  using reference_mh::selectProcessCandidates;
  validateOptions(options);
  if (scratch != nullptr && &scratch->evaluator() != &evaluator) {
    throw std::invalid_argument(
        "runMappingHeuristic: scratch context bound to another evaluator");
  }
  const SystemModel& sys = evaluator.system();
  MhResult result;
  result.solution = initial;

  // One evaluation context for the whole run; the refresh after an
  // applied move re-reads the cached result instead of re-scheduling. A
  // caller-provided context (the RunContext pool lease) is reused verbatim.
  std::optional<EvalContext> owned;
  EvalContext& ctx = scratch != nullptr ? *scratch : owned.emplace(evaluator);

  ScheduleOutcome outcome;
  SlackInfo slack;
  result.eval = ctx.evaluate(result.solution, &outcome, &slack);
  result.evaluations = 1;
  if (!result.eval.feasible) {
    throw std::invalid_argument("runMappingHeuristic: initial not feasible");
  }

  // Iterative improvement with first-improvement acceptance: the candidate
  // moves are generated highest-potential-first, and the first one that
  // improves C is applied immediately. This is what makes MH cheap — most
  // iterations commit a move after a handful of evaluations, because the
  // potential analysis looked at the right processes first.
  for (int iter = 0; iter < options.maxIterations; ++iter) {
    if (options.stop != nullptr && options.stop->stopRequested()) {
      result.stopped = true;
      break;
    }
    const std::vector<ProcessId> procs = selectProcessCandidates(
        sys, evaluator, outcome, slack, options.candidateProcesses);
    const std::vector<MessageId> msgs =
        selectMessageCandidates(outcome, options.candidateMessages);

    // Rank nodes by periodic headroom once per iteration.
    const std::vector<Time> headroom =
        minWindowSlackPerNode(slack, evaluator.profile().tmin);
    std::vector<std::size_t> nodeRank(headroom.size());
    for (std::size_t i = 0; i < nodeRank.size(); ++i) nodeRank[i] = i;
    std::sort(nodeRank.begin(), nodeRank.end(),
              [&](std::size_t a, std::size_t b) {
                if (headroom[a] != headroom[b]) {
                  return headroom[a] > headroom[b];
                }
                return a < b;
              });

    bool applied = false;
    bool budgetExhausted = false;
    // Try a move; apply it if improving and report success.
    auto tryMove = [&](const Move& move) {
      if (options.maxEvaluations != 0 &&
          result.evaluations >= options.maxEvaluations) {
        budgetExhausted = true;
        return true;  // stop scanning; nothing was applied
      }
      MappingSolution trial = result.solution;
      MoveHint hint;
      if (move.kind == Move::Kind::Process) {
        trial.setNode(move.process, move.node);
        trial.setStartHint(move.process, move.hint);
        hint.graph = sys.process(move.process).graph;
        hint.process = move.process;
      } else {
        trial.setMessageHint(move.message, move.hint);
        hint.graph = sys.message(move.message).graph;
        hint.message = move.message;
      }
      const EvalResult r = ctx.evaluate(trial, hint);
      ++result.evaluations;
      if (r.cost < result.eval.cost - kEps) {
        result.solution = std::move(trial);
        applied = true;
        return true;
      }
      return false;
    };

    for (const ProcessId p : procs) {
      if (applied) break;
      const Process& proc = sys.process(p);
      const ProcessGraph& graph = sys.graph(proc.graph);
      // Target nodes: the allowed nodes with the most headroom, plus the
      // process's current node (for hint-only moves within it).
      std::vector<NodeId> targets;
      for (std::size_t idx : nodeRank) {
        if (static_cast<int>(targets.size()) >= options.targetNodes) break;
        const NodeId n{static_cast<std::int32_t>(idx)};
        if (proc.allowedOn(n)) targets.push_back(n);
      }
      const NodeId home = result.solution.nodeOf(p);
      if (std::find(targets.begin(), targets.end(), home) == targets.end()) {
        targets.push_back(home);
      }
      for (const NodeId n : targets) {
        if (applied) break;
        const Time maxHint =
            std::max<Time>(0, graph.deadline - proc.wcetOn(n));
        for (Time h : gapHints(slack.nodeFree[n.index()], graph.period,
                               options.gapsPerNode)) {
          h = std::min(h, maxHint);
          if (n == result.solution.nodeOf(p) &&
              h == result.solution.startHint(p)) {
            continue;
          }
          if (tryMove({Move::Kind::Process, p, n, {}, h})) break;
        }
      }
    }

    if (!applied) {
      // Bus windows: hints at the starts of the emptiest rounds.
      std::vector<SlackInfo::BusChunk> chunks = slack.busChunks;
      std::sort(chunks.begin(), chunks.end(),
                [](const SlackInfo::BusChunk& a,
                   const SlackInfo::BusChunk& b) {
                  if (a.freeTicks != b.freeTicks) {
                    return a.freeTicks > b.freeTicks;
                  }
                  return a.start < b.start;
                });
      for (const MessageId m : msgs) {
        if (applied) break;
        const Message& msg = sys.message(m);
        const ProcessGraph& graph = sys.graph(msg.graph);
        int tried = 0;
        for (const SlackInfo::BusChunk& chunk : chunks) {
          if (tried >= options.busWindows) break;
          const Time h =
              std::min(chunk.start % graph.period, graph.deadline - 1);
          ++tried;
          if (h == result.solution.messageHint(m)) continue;
          if (tryMove({Move::Kind::Message, {}, {}, m, h})) break;
        }
      }
    }

    if (budgetExhausted || !applied) break;  // minimum or out of budget

    result.eval = ctx.evaluate(result.solution, &outcome, &slack);
    ++result.evaluations;
    result.iterations = iter + 1;
  }
  return result;
}

}  // namespace ides::testing
