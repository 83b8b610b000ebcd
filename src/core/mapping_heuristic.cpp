#include "core/mapping_heuristic.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "model/system_model.h"
#include "util/log.h"

namespace ides {

namespace {

constexpr double kEps = 1e-9;

struct Move {
  enum class Kind { Process, Message } kind = Kind::Process;
  ProcessId process;
  NodeId node;
  MessageId message;
  Time hint = 0;
};

/// One current-application execution on a node, as the analysis reads it.
struct Busy {
  Time start = 0;
  Time end = 0;
  ProcessId pid;
};

/// A node's entries: by start.
bool startsEarlier(const Busy& x, const Busy& y) { return x.start < y.start; }

/// Target gaps: the largest first.
bool largerGap(const Interval& x, const Interval& y) {
  if (x.length() != y.length()) return x.length() > y.length();
  return x.start < y.start;
}

/// Target bus windows: the emptiest rounds first.
bool emptierChunk(const SlackInfo::BusChunk& x, const SlackInfo::BusChunk& y) {
  if (x.freeTicks != y.freeTicks) return x.freeTicks > y.freeTicks;
  return x.start < y.start;
}

/// Dense scratch of the per-round potential analysis, sized once per run
/// and indexed by id. It is a local of runMappingHeuristic, never shared:
/// MH runs concurrently on batch shards and daemon workers.
struct Analysis {
  explicit Analysis(const SystemModel& sys)
      : byNode(sys.architecture().nodeCount()),
        score(sys.processes().size(), 0.0),
        scored(sys.processes().size(), 0),
        longest(sys.messages().size(), kNoTime),
        worstWindow(sys.architecture().nodeCount(), 0),
        headroom(sys.architecture().nodeCount(), 0),
        nodeRank(sys.architecture().nodeCount(), 0) {}

  /// Per node: the incumbent's entries on it, sorted by start. Entries on
  /// a node are disjoint and non-empty, so they are sorted by end too.
  std::vector<std::vector<Busy>> byNode;
  /// Per process: its potential score, and whether it has one at all (a
  /// score of 0 still ranks ahead of the top-up).
  std::vector<double> score;
  std::vector<std::uint8_t> scored;
  std::vector<ProcessId> touched;  ///< the processes with `scored` set
  /// Per message: its longest transmission this round (kNoTime: none).
  std::vector<Time> longest;
  std::vector<MessageId> onBus;  ///< the messages with `longest` set
  /// Per node: the first Tmin window of least slack, and that slack.
  std::int64_t windows = 0;
  std::vector<std::int64_t> worstWindow;
  std::vector<Time> headroom;
  std::vector<std::size_t> nodeRank;  ///< nodes by headroom, most first
  /// This round's candidates and the buffers the trials reuse.
  std::vector<ProcessId> procs;
  std::vector<MessageId> msgs;
  std::vector<NodeId> targets;
  std::vector<SlackInfo::BusChunk> chunks;
};

/// Per-node worst Tmin window (the C2 pressure point) and its slack, the
/// target-node ranking key: moving work onto the node with the most
/// periodic headroom is the transformation with the highest potential to
/// raise C2P.
void analyzeWindows(const SlackInfo& slack, Time tmin, Analysis& a) {
  a.windows = slack.horizon / tmin;
  for (std::size_t n = 0; n < a.headroom.size(); ++n) {
    std::int64_t worstWindow = 0;
    Time worstSlack = a.windows > 0 ? kTimeMax : 0;
    for (std::int64_t w = 0; w < a.windows; ++w) {
      const Time s = slack.nodeSlackInWindow(n, w * tmin, (w + 1) * tmin);
      if (s < worstSlack) {
        worstSlack = s;
        worstWindow = w;
      }
    }
    a.worstWindow[n] = worstWindow;
    a.headroom[n] = worstSlack;
  }
  const auto moreHeadroom = [&a](std::size_t x, std::size_t y) {
    if (a.headroom[x] != a.headroom[y]) return a.headroom[x] > a.headroom[y];
    return x < y;
  };
  for (std::size_t i = 0; i < a.nodeRank.size(); ++i) a.nodeRank[i] = i;
  std::sort(a.nodeRank.begin(), a.nodeRank.end(), moreHeadroom);
}

/// Highest-potential processes: those bordering the smallest slack
/// fragments (C1 pressure) and those inside the worst Tmin window of the
/// most starved node (C2 pressure). Reads the context's log, which must
/// describe the incumbent.
void selectProcesses(const SolutionEvaluator& ev, const EvalContext& ctx,
                     const SlackInfo& slack, int limit, Analysis& a) {
  for (const ProcessId p : a.touched) {
    a.score[p.index()] = 0.0;
    a.scored[p.index()] = 0;
  }
  a.touched.clear();
  const auto entry = [&a](ProcessId p) -> double& {
    if (a.scored[p.index()] == 0) {
      a.scored[p.index()] = 1;
      a.touched.push_back(p);
    }
    return a.score[p.index()];
  };

  for (std::vector<Busy>& busy : a.byNode) busy.clear();
  for (const ScheduledProcess& sp : ctx.processes()) {
    a.byNode[sp.node.index()].push_back({sp.start, sp.end, sp.pid});
  }
  for (std::vector<Busy>& busy : a.byNode) {
    std::sort(busy.begin(), busy.end(), startsEarlier);
  }

  // C1 pressure: adjacency to small fragments scores inversely to the
  // fragment length. Every C1 credit lands before any C2 sum, so each
  // score adds its C2 terms to its final C1 maximum. Gaps and entries are
  // both sorted by start and by end, so one forward walk per node finds,
  // for every entry, the gap ending where it starts and the gap starting
  // where it ends.
  const auto credit = [&entry](ProcessId p, const Interval& gap) {
    double& score = entry(p);
    score = std::max(score, 1.0 / (1.0 + static_cast<double>(gap.length())));
  };
  for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
    const std::vector<Interval>& gaps = slack.nodeFree[n].intervals();
    auto before = gaps.begin();
    auto after = gaps.begin();
    for (const Busy& b : a.byNode[n]) {
      while (before != gaps.end() && before->end < b.start) ++before;
      if (before != gaps.end() && before->end == b.start) {
        credit(b.pid, *before);
      }
      while (after != gaps.end() && after->start < b.end) ++after;
      if (after != gaps.end() && after->start == b.end) {
        credit(b.pid, *after);
      }
    }
  }

  // C2 pressure: every node's *worst* window is what the C2P sum is made
  // of, so every current-application process executing inside one is a
  // high-potential move candidate — evacuating it directly raises that
  // node's minimum. The more starved the window, the higher the score. A
  // process runs on one node, so its terms are one pressure added once
  // per overlapping instance, in any order.
  const Time tmin = ev.profile().tmin;
  if (a.windows > 0) {
    for (std::size_t n = 0; n < a.byNode.size(); ++n) {
      const Time windowStart = a.worstWindow[n] * tmin;
      const Interval window{windowStart, windowStart + tmin};
      const double deficit = static_cast<double>(tmin - a.headroom[n]);
      const double pressure = 2.0 * deficit / static_cast<double>(tmin);
      for (const Busy& b : a.byNode[n]) {
        if (Interval{b.start, b.end}.overlaps(window)) {
          entry(b.pid) += pressure;
        }
      }
    }
  }

  // Rank by (score desc, pid asc); only the first `limit` are read.
  const auto higherScore = [&a](ProcessId x, ProcessId y) {
    const double sx = a.score[x.index()];
    const double sy = a.score[y.index()];
    if (sx != sy) return sx > sy;
    return x.value < y.value;
  };
  a.procs.assign(a.touched.begin(), a.touched.end());
  const std::size_t k = std::min<std::size_t>(a.procs.size(), limit);
  const auto top = a.procs.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(a.procs.begin(), top, a.procs.end(), higherScore);
  a.procs.resize(k);
  // Top up deterministically so early iterations (little adjacency yet)
  // still explore. A short ranking holds every scored process, so the
  // score flag doubles as the seen set.
  for (const GraphId g : ev.currentGraphs()) {
    for (const ProcessId p : ev.system().graph(g).processes) {
      if (static_cast<int>(a.procs.size()) >= limit) return;
      if (a.scored[p.index()] == 0) {
        entry(p);
        a.procs.push_back(p);
      }
    }
  }
}

/// Messages with the longest transmissions fragment the bus the most:
/// distinct messages ranked by (longest instance desc, mid asc).
void selectMessages(const EvalContext& ctx, int limit, Analysis& a) {
  for (const MessageId m : a.onBus) a.longest[m.index()] = kNoTime;
  a.onBus.clear();
  for (const ScheduledMessage& sm : ctx.messages()) {
    Time& longest = a.longest[sm.mid.index()];
    if (longest == kNoTime) a.onBus.push_back(sm.mid);
    longest = std::max(longest, sm.end - sm.start);
  }
  const auto longerTransmission = [&a](MessageId x, MessageId y) {
    const Time lx = a.longest[x.index()];
    const Time ly = a.longest[y.index()];
    if (lx != ly) return lx > ly;
    return x.value < y.value;
  };
  a.msgs.assign(a.onBus.begin(), a.onBus.end());
  const std::size_t k = std::min<std::size_t>(a.msgs.size(), limit);
  const auto top = a.msgs.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(a.msgs.begin(), top, a.msgs.end(), longerTransmission);
  a.msgs.resize(k);
}

/// Starts of the largest `count` gaps of a node, as period-relative hints.
std::vector<Time> gapHints(const IntervalSet& free, Time period, int count) {
  std::vector<Interval> gaps(free.intervals());
  std::sort(gaps.begin(), gaps.end(), largerGap);
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

/// Copies the entries `move` touches from `from` into `to`.
void copyMoveEntries(const Move& move, const MappingSolution& from,
                     MappingSolution& to) {
  if (move.kind == Move::Kind::Process) {
    to.setNode(move.process, from.nodeOf(move.process));
    to.setStartHint(move.process, from.startHint(move.process));
  } else {
    to.setMessageHint(move.message, from.messageHint(move.message));
  }
}

}  // namespace

void validateOptions(const MhOptions& options) {
  const auto check = [](const char* field, int value) {
    if (value < 0) {
      throw std::invalid_argument(std::string("MhOptions: ") + field +
                                  " must be >= 0 (got " +
                                  std::to_string(value) + ")");
    }
  };
  check("maxIterations", options.maxIterations);
  check("candidateProcesses", options.candidateProcesses);
  check("targetNodes", options.targetNodes);
  check("gapsPerNode", options.gapsPerNode);
  check("candidateMessages", options.candidateMessages);
  check("busWindows", options.busWindows);
}

MhResult runMappingHeuristic(const SolutionEvaluator& evaluator,
                             const MappingSolution& initial,
                             const MhOptions& options,
                             EvalContext* scratch) {
  validateOptions(options);
  if (scratch != nullptr && &scratch->evaluator() != &evaluator) {
    throw std::invalid_argument(
        "runMappingHeuristic: scratch context bound to another evaluator");
  }
  const SystemModel& sys = evaluator.system();
  MhResult result;
  result.solution = initial;

  // One evaluation context for the whole run; the refresh after an applied
  // move walks from the context's reference to the incumbent (nothing at
  // all when the incumbent is the reference). A caller-provided context (a
  // RunContext's) is reused verbatim.
  std::optional<EvalContext> owned;
  EvalContext& ctx = scratch != nullptr ? *scratch : owned.emplace(evaluator);

  // Every (re)evaluation of the incumbent leaves the context's log
  // describing it and snapshots its slack; the potential analysis reads
  // both before the round's first trial.
  SlackInfo slack;
  result.eval = ctx.evaluate(result.solution, nullptr, &slack);
  result.evaluations = 1;
  if (!result.eval.feasible) {
    throw std::invalid_argument("runMappingHeuristic: initial not feasible");
  }

  Analysis a(sys);
  // The one trial solution of the run: a move is applied to it and
  // evaluated, then either copied into the incumbent or undone.
  MappingSolution trial = result.solution;

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
    analyzeWindows(slack, evaluator.profile().tmin, a);
    selectProcesses(evaluator, ctx, slack, options.candidateProcesses, a);
    selectMessages(ctx, options.candidateMessages, a);

    bool applied = false;
    bool budgetExhausted = false;
    // Try a move; apply it if improving and report success.
    auto tryMove = [&](const Move& move) {
      if (options.maxEvaluations != 0 &&
          result.evaluations >= options.maxEvaluations) {
        budgetExhausted = true;
        return true;  // stop scanning; nothing was applied
      }
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
        result.solution = trial;
        applied = true;
        return true;
      }
      copyMoveEntries(move, result.solution, trial);
      return false;
    };

    for (const ProcessId p : a.procs) {
      if (applied) break;
      const Process& proc = sys.process(p);
      const ProcessGraph& graph = sys.graph(proc.graph);
      // Target nodes: the allowed nodes with the most headroom, plus the
      // process's current node (for hint-only moves within it).
      std::vector<NodeId>& targets = a.targets;
      targets.clear();
      for (std::size_t idx : a.nodeRank) {
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
      // Bus windows: hints at the starts of the emptiest rounds. Only the
      // first `busWindows` are read; chunk starts are distinct, so the
      // partial order is the full sort's prefix.
      const std::vector<SlackInfo::BusChunk>& all = slack.busChunks;
      a.chunks.resize(std::min<std::size_t>(all.size(), options.busWindows));
      std::partial_sort_copy(all.begin(), all.end(), a.chunks.begin(),
                             a.chunks.end(), emptierChunk);
      for (const MessageId m : a.msgs) {
        if (applied) break;
        const Message& msg = sys.message(m);
        const ProcessGraph& graph = sys.graph(msg.graph);
        for (const SlackInfo::BusChunk& chunk : a.chunks) {
          const Time h =
              std::min(chunk.start % graph.period, graph.deadline - 1);
          if (h == result.solution.messageHint(m)) continue;
          if (tryMove({Move::Kind::Message, {}, {}, m, h})) break;
        }
      }
    }

    if (budgetExhausted || !applied) break;  // minimum or out of budget

    result.eval = ctx.evaluate(result.solution, nullptr, &slack);
    ++result.evaluations;
    result.iterations = iter + 1;
    IDES_LOG_AT(LogLevel::Debug)
        << "MH iter " << iter << ": C=" << result.eval.cost;
  }
  return result;
}

}  // namespace ides
