#include "core/evaluator.h"

#include <algorithm>

#include "model/graph_algos.h"
#include "model/system_model.h"
#include "obs/telemetry.h"

namespace ides {

namespace {

/// Handles cached once per process: EvalContext::run is the hottest path
/// in the system, so each evaluation pays exactly one classification add
/// (plus the evaluation counter) — a relaxed fetch_add on a sharded cell.
/// Strictly write-only: no decision ever reads these back.
struct EvalTelemetry {
  Counter& evaluations;
  Counter& zeroDelta;
  Counter& midGraph;
  Counter& graphStart;
};

EvalTelemetry& evalTelemetry() {
  static EvalTelemetry handles{
      telemetry().counter("ides_eval_evaluations_total",
                          "Delta-aware schedule evaluations"),
      telemetry().counter(
          "ides_eval_rewind_depth_total",
          "Evaluations by rewind depth: zero_delta re-read the solution "
          "last evaluated, mid_graph resumed at a fine checkpoint, "
          "graph_start re-scheduled from a whole-graph checkpoint",
          {{"depth", "zero_delta"}}),
      telemetry().counter("ides_eval_rewind_depth_total", "",
                          {{"depth", "mid_graph"}}),
      telemetry().counter("ides_eval_rewind_depth_total", "",
                          {{"depth", "graph_start"}}),
  };
  return handles;
}

/// Shared result assembly: the penalty ladder of the paper's objective.
EvalResult makeResult(bool placed, int deadlineMisses, Time lateness) {
  EvalResult result;
  result.placed = placed;
  result.feasible = placed && deadlineMisses == 0;
  result.deadlineMisses = deadlineMisses;
  result.lateness = lateness;
  if (!placed) {
    result.cost = SolutionEvaluator::kUnplacedPenalty;
  } else if (!result.feasible) {
    result.cost =
        SolutionEvaluator::kMissPenalty + static_cast<double>(lateness);
  }
  return result;
}

}  // namespace

SolutionEvaluator::SolutionEvaluator(const SystemModel& sys,
                                     PlatformState baseline,
                                     FutureProfile profile,
                                     MetricWeights weights,
                                     std::vector<GraphId> movableGraphs)
    : sys_(&sys),
      baseline_(std::move(baseline)),
      profile_(std::move(profile)),
      weights_(weights),
      movableGraphs_(movableGraphs.empty()
                         ? sys.graphsOfKind(AppKind::Current)
                         : std::move(movableGraphs)),
      currentGraphs_(movableGraphs_) {
  profile_.validate();
  // Canonical evaluation order: heaviest graph (most jobs per pass) first,
  // stable on the input order. Any fixed order is a valid full pass; this
  // one puts the expensive graphs into the checkpointed prefix, so a
  // delta evaluation restarting at a uniformly random graph re-schedules
  // the cheap tail far more often than the expensive head.
  std::stable_sort(currentGraphs_.begin(), currentGraphs_.end(),
                   [&sys](GraphId a, GraphId b) {
                     const auto jobs = [&sys](GraphId g) {
                       return sys.instanceCount(g) *
                              static_cast<std::int64_t>(
                                  sys.graph(g).processes.size());
                     };
                     return jobs(a) > jobs(b);
                   });
  priorities_.reserve(currentGraphs_.size());
  for (GraphId g : currentGraphs_) {
    priorities_.push_back(criticalPathPriorities(sys, g));
  }
  // Static commit orders and the flat job-index layout derived from them.
  const std::size_t n = currentGraphs_.size();
  orders_.reserve(n);
  jobBase_.assign(n + 1, 0);
  graphIdx_.assign(sys.graphs().size(), n);
  procGraph_.assign(sys.processes().size(), n);
  procLocal_.assign(sys.processes().size(), -1);
  for (std::size_t gi = 0; gi < n; ++gi) {
    const GraphId g = currentGraphs_[gi];
    orders_.push_back(computeJobOrder(sys, g, priorities_[gi]));
    jobBase_[gi + 1] = jobBase_[gi] + orders_[gi].jobCount();
    graphIdx_[static_cast<std::size_t>(g.index())] = gi;
    const std::vector<ProcessId>& procs = sys.graph(g).processes;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      const auto pi = static_cast<std::size_t>(procs[i].index());
      procGraph_[pi] = gi;
      procLocal_[pi] = static_cast<std::int32_t>(i);
    }
  }
}

std::size_t SolutionEvaluator::graphIndexOf(GraphId g) const {
  if (!g.valid() || static_cast<std::size_t>(g.index()) >= graphIdx_.size()) {
    return currentGraphs_.size();
  }
  return graphIdx_[static_cast<std::size_t>(g.index())];
}

std::size_t SolutionEvaluator::jobIndexOf(ProcessId p,
                                          std::int32_t instance) const {
  const auto pi = static_cast<std::size_t>(p.index());
  const std::size_t gi = procGraph_[pi];
  const GraphJobOrder& order = orders_[gi];
  const std::size_t flat =
      static_cast<std::size_t>(instance) * order.processCount +
      static_cast<std::size_t>(procLocal_[pi]);
  return jobBase_[gi] + static_cast<std::size_t>(order.positionOf[flat]);
}

EvalResult SolutionEvaluator::evaluate(const MappingSolution& solution) const {
  return evaluate(solution, nullptr, nullptr);
}

EvalResult SolutionEvaluator::evaluate(const MappingSolution& solution,
                                       ScheduleOutcome* outcomeOut,
                                       SlackInfo* slackOut) const {
  PlatformState state = baseline_;
  ScheduleRequest req;
  req.graphs = currentGraphs_;
  req.mapping = &solution;
  req.priorities = &priorities_;
  ScheduleOutcome outcome = scheduleGraphs(*sys_, req, state);

  EvalResult result =
      makeResult(outcome.placed, outcome.deadlineMisses, outcome.totalLateness);
  if (result.feasible) {
    const SlackInfo slack = extractSlack(state);
    result.metrics = computeMetrics(slack, profile_);
    result.objective = objectiveValue(result.metrics, profile_, weights_);
    result.cost = result.objective;
    if (slackOut != nullptr) *slackOut = slack;
  }
  if (outcomeOut != nullptr) *outcomeOut = std::move(outcome);
  return result;
}

PlatformState SolutionEvaluator::stateWith(
    const MappingSolution& solution) const {
  PlatformState state = baseline_;
  ScheduleRequest req;
  req.graphs = currentGraphs_;
  req.mapping = &solution;
  req.priorities = &priorities_;
  scheduleGraphs(*sys_, req, state);
  return state;
}

// ---- EvalContext ----------------------------------------------------------

EvalContext::EvalContext(const SolutionEvaluator& evaluator)
    : ev_(&evaluator),
      sys_(&evaluator.system()),
      state_(evaluator.baseline()),
      session_(evaluator.system(), state_) {
  // The baseline is the floor: mark 0 is "no current graph scheduled".
  state_.setJournaling(true);
  const std::size_t n = ev_->currentGraphs().size();
  checkpoints_.resize(n + 1);
  fineMarks_.resize(n);
  fineCount_.assign(n, 0);
  nodeStamp_.assign(state_.nodeCount(), 0);
  occStamp_.assign(state_.bus().slotCount() *
                       static_cast<std::size_t>(state_.roundCount()),
                   0);
}

bool EvalContext::graphEntriesEqual(const MappingSolution& a,
                                    const MappingSolution& b,
                                    std::size_t gi) const {
  const ProcessGraph& graph = sys_->graph(ev_->currentGraphs()[gi]);
  for (const ProcessId p : graph.processes) {
    if (a.nodeOf(p) != b.nodeOf(p) || a.startHint(p) != b.startHint(p)) {
      return false;
    }
  }
  for (const MessageId m : graph.messages) {
    if (a.messageHint(m) != b.messageHint(m)) return false;
  }
  return true;
}

std::size_t EvalContext::restartIndex(const MappingSolution& solution,
                                      std::size_t hintIndex) const {
  if (!hasReference_) return 0;
  // Never restart past what is actually committed in the state.
  std::size_t idx = std::min(hintIndex, validGraphs_);
  // Verify the claim: every graph scheduled before the restart point must
  // be identical to the reference, or the checkpoint there describes a
  // different solution. A rejected SA move is the common case — the next
  // trial also reverts the rejected graph, which the scan catches here.
  for (std::size_t gi = 0; gi < idx; ++gi) {
    if (!graphEntriesEqual(reference_, solution, gi)) return gi;
  }
  return idx;
}

std::size_t EvalContext::restartPosition(const MappingSolution& solution,
                                         std::size_t gi) const {
  const GraphJobOrder& order = ev_->jobOrders()[gi];
  const ProcessGraph& graph = sys_->graph(ev_->currentGraphs()[gi]);
  const std::int64_t instances = sys_->instanceCount(graph.id);
  std::size_t pos = order.jobCount();
  const auto coverProcess = [&](ProcessId p) {
    const auto local = static_cast<std::size_t>(ev_->localProcessIndex(p));
    for (std::int64_t k = 0; k < instances; ++k) {
      const std::size_t flat =
          static_cast<std::size_t>(k) * order.processCount + local;
      pos = std::min(pos, static_cast<std::size_t>(order.positionOf[flat]));
    }
  };
  for (const ProcessId p : graph.processes) {
    if (reference_.nodeOf(p) != solution.nodeOf(p) ||
        reference_.startHint(p) != solution.startHint(p)) {
      coverProcess(p);
    }
  }
  for (const MessageId m : graph.messages) {
    if (reference_.messageHint(m) != solution.messageHint(m)) {
      // The hint is only read when scheduling the destination; the
      // destination of instance k commits after the source of instance k,
      // so its positions bound every reader.
      coverProcess(sys_->message(m).dst);
    }
  }
  return pos;
}

void EvalContext::beginDirty() {
  if (++stamp_ == 0) {  // wrapped: reset the lazily-aged stamps
    std::fill(nodeStamp_.begin(), nodeStamp_.end(), 0u);
    std::fill(occStamp_.begin(), occStamp_.end(), 0u);
    stamp_ = 1;
  }
  dirtyNodes_.clear();
  dirtyOccs_.clear();
}

void EvalContext::collectDirty(PlatformState::Mark from) {
  const std::vector<PlatformState::JournalEntry>& journal = state_.journal();
  const auto rounds = static_cast<std::uint64_t>(state_.roundCount());
  for (std::size_t i = from; i < journal.size(); ++i) {
    const PlatformState::JournalEntry& e = journal[i];
    if (e.kind == PlatformState::JournalEntry::Kind::Node) {
      if (nodeStamp_[e.index] != stamp_) {
        nodeStamp_[e.index] = stamp_;
        dirtyNodes_.push_back(e.index);
      }
    } else {
      const std::uint64_t key =
          static_cast<std::uint64_t>(e.index) * rounds +
          static_cast<std::uint64_t>(e.round);
      if (occStamp_[static_cast<std::size_t>(key)] != stamp_) {
        occStamp_[static_cast<std::size_t>(key)] = stamp_;
        dirtyOccs_.push_back(key);
      }
    }
  }
}

void EvalContext::fillOutcome(ScheduleOutcome& outcome,
                              const MappingSolution& solution,
                              const EvalResult& result) const {
  outcome.placed = result.placed;
  outcome.feasible = result.feasible;
  outcome.deadlineMisses = result.deadlineMisses;
  outcome.totalLateness = result.lateness;
  outcome.schedule = Schedule{};
  for (const ScheduledProcess& sp : processes_) {
    outcome.schedule.addProcess(sp);
  }
  for (const ScheduledMessage& sm : messages_) {
    outcome.schedule.addMessage(sm);
  }
  outcome.mapping = solution;
}

EvalResult EvalContext::evaluate(const MappingSolution& solution) {
  return run(solution, 0, 0, nullptr, nullptr);
}

EvalResult EvalContext::evaluate(const MappingSolution& solution,
                                 const MoveHint& hint) {
  // An invalid or foreign graph maps to the graph count; restartIndex still
  // verifies the prefix from graph 0, so that costs a scan, never a result.
  std::size_t gi = restartIndex(solution, ev_->graphIndexOf(hint.graph));
  std::size_t pos = 0;
  while (gi < validGraphs_) {
    pos = restartPosition(solution, gi);
    if (pos < ev_->jobOrders()[gi].jobCount()) break;
    // Graph unchanged (stale or too-coarse hint): the verified-equal prefix
    // extends over it; look at the next committed graph.
    pos = 0;
    ++gi;
  }
  return run(solution, gi, pos, nullptr, nullptr);
}

EvalResult EvalContext::evaluate(const MappingSolution& solution,
                                 ScheduleOutcome* outcomeOut,
                                 SlackInfo* slackOut) {
  const std::size_t n = ev_->currentGraphs().size();
  // Serve the cached state when re-reading the solution just evaluated.
  const std::size_t first =
      restartIndex(solution, n) == n && validGraphs_ == n ? n : 0;
  return run(solution, first, 0, outcomeOut, slackOut);
}

EvalResult EvalContext::run(const MappingSolution& solution,
                            std::size_t firstGraph, std::size_t firstPos,
                            ScheduleOutcome* outcomeOut, SlackInfo* slackOut) {
  const std::vector<GraphId>& graphs = ev_->currentGraphs();
  const std::size_t n = graphs.size();
  ++evaluations_;
  evalTelemetry().evaluations.add();

  firstGraph = std::min(firstGraph, validGraphs_);

  if (firstGraph == n && resultValid_) {
    // Re-reading the solution already committed: the state, the log and the
    // cached result all describe it verbatim.
    ++zeroDeltaServes_;
    evalTelemetry().zeroDelta.add();
    graphsReused_ += n;
    lastRestartGraph_ = n;
    lastRestartPos_ = 0;
    reference_ = solution;
    if (slackOut != nullptr && result_.feasible) {
      extractSlackInto(state_, slack_);
      *slackOut = slack_;
    }
    if (outcomeOut != nullptr) fillOutcome(*outcomeOut, solution, result_);
    return result_;
  }

  firstPos = firstGraph < n ? std::min(firstPos, fineCount_[firstGraph]) : 0;
  graphsReused_ += firstGraph;
  lastRestartGraph_ = firstGraph;
  lastRestartPos_ = firstPos;

  // The checkpoint to rewind to: a fine (mid-graph) one when resuming
  // inside the restart graph, the whole-graph one otherwise.
  PlatformState::Mark restartMark;
  std::size_t pc0;
  std::size_t mc0;
  if (firstGraph < n && firstPos > 0) {
    const SchedulerSession::JobCheckpoint& cp = fineMarks_[firstGraph][firstPos];
    restartMark = cp.mark;
    pc0 = cp.processCount;
    mc0 = cp.messageCount;
  } else {
    const Checkpoint& cp = checkpoints_[firstGraph];
    restartMark = cp.mark;
    pc0 = cp.processCount;
    mc0 = cp.messageCount;
  }

  // Dirty tracking for the metrics cache: the records about to be undone
  // plus (after scheduling) the records newly committed.
  const bool trackDirty = metricsCache_.valid();
  if (trackDirty) {
    beginDirty();
    collectDirty(restartMark);
  }

  // Rewind: two resizes plus the journal rollback, for any granularity.
  state_.rollbackTo(restartMark);
  processes_.resize(pc0);
  messages_.resize(mc0);
  arrivals_.resize(pc0);
  int misses = checkpoints_[firstGraph].deadlineMisses;
  Time lateness = checkpoints_[firstGraph].lateness;

  bool placed = true;
  for (std::size_t gi = firstGraph; gi < n; ++gi) {
    const std::size_t resumeAt = gi == firstGraph ? firstPos : 0;
    if (resumeAt == 0) {
      checkpoints_[gi] = {state_.mark(), processes_.size(), messages_.size(),
                          misses, lateness};
    }
    const SchedulerSession::GraphResult r = session_.scheduleGraph(
        graphs[gi], solution, nullptr, ev_->jobOrders()[gi], resumeAt,
        checkpoints_[gi].processCount, processes_, messages_, &fineMarks_[gi],
        &arrivals_);
    ++graphsScheduled_;
    if (!r.placed) {
      // Drop the failed graph's partial placement so the checkpoints for
      // the prefix stay valid; the result still reports the partial
      // tallies, exactly like the full pass does.
      if (trackDirty && checkpoints_[gi].mark < restartMark) {
        // A failing mid-graph restart rewinds below the restart mark: the
        // prefix records it undoes were not in the pre-rollback scan, so
        // collect them before they leave the journal.
        collectDirty(checkpoints_[gi].mark);
      }
      state_.rollbackTo(checkpoints_[gi].mark);
      processes_.resize(checkpoints_[gi].processCount);
      messages_.resize(checkpoints_[gi].messageCount);
      arrivals_.resize(checkpoints_[gi].processCount);
      fineCount_[gi] = 0;
      validGraphs_ = gi;
      misses = checkpoints_[gi].deadlineMisses + r.deadlineMisses;
      lateness = checkpoints_[gi].lateness + r.totalLateness;
      placed = false;
      break;
    }
    fineCount_[gi] = ev_->jobOrders()[gi].jobCount();
    misses = checkpoints_[gi].deadlineMisses + r.deadlineMisses;
    lateness = checkpoints_[gi].lateness + r.totalLateness;
    validGraphs_ = gi + 1;
  }
  if (placed) {
    checkpoints_[n] = {state_.mark(), processes_.size(), messages_.size(),
                       misses, lateness};
  }
  reference_ = solution;
  hasReference_ = true;
  if (lastRestartPos_ > 0) {
    evalTelemetry().midGraph.add();
  } else {
    evalTelemetry().graphStart.add();
  }

  EvalResult result = makeResult(placed, misses, lateness);
  // Keep the metrics snapshot aligned on every evaluation once it exists —
  // including infeasible ones (cheap: only the dirty entries are touched).
  if (trackDirty) {
    collectDirty(restartMark);
    metricsCache_.update(state_, dirtyNodes_, dirtyOccs_);
  }
  if (result.feasible) {
    if (!metricsCache_.valid()) {
      metricsCache_.rebuild(state_, ev_->profile());
    }
    result.metrics = metricsCache_.metrics(ev_->profile());
    result.objective =
        objectiveValue(result.metrics, ev_->profile(), ev_->weights());
    result.cost = result.objective;
    if (slackOut != nullptr) {
      extractSlackInto(state_, slack_);
      *slackOut = slack_;
    }
  }
  result_ = result;
  resultValid_ = placed;
  if (outcomeOut != nullptr) fillOutcome(*outcomeOut, solution, result);
  return result;
}

// ---- EvalContextPool ------------------------------------------------------

EvalContextPool::EvalContextPool(const SolutionEvaluator& evaluator,
                                 std::size_t size) {
  for (std::size_t w = 0; w < size; ++w) {
    contexts_.emplace_back(evaluator);
  }
}

}  // namespace ides
