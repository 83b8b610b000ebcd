#include "core/evaluator.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "model/graph_algos.h"
#include "model/system_model.h"
#include "obs/telemetry.h"

namespace ides {

namespace {

/// Handles cached once per process: EvalContext::run is the hottest path
/// in the system, so each evaluation pays one classification add plus the
/// evaluation counter and, when it walks, one add per job kind — a relaxed
/// fetch_add on a sharded cell each. Strictly write-only: no decision ever
/// reads these back.
struct EvalTelemetry {
  Counter& evaluations;
  Counter& zeroDelta;
  Counter& midGraph;
  Counter& graphStart;
  Counter& jobsVisited;
  Counter& jobsReplaced;
};

EvalTelemetry& evalTelemetry() {
  static EvalTelemetry handles{
      telemetry().counter("ides_eval_evaluations_total",
                          "Delta-aware schedule evaluations"),
      telemetry().counter(
          "ides_eval_rewind_depth_total",
          "Evaluations by where the walk started: zero_delta re-read the "
          "reference solution, mid_graph started inside a graph's commit "
          "order, graph_start at a graph's first job",
          {{"depth", "zero_delta"}}),
      telemetry().counter("ides_eval_rewind_depth_total", "",
                          {{"depth", "mid_graph"}}),
      telemetry().counter("ides_eval_rewind_depth_total", "",
                          {{"depth", "graph_start"}}),
      telemetry().counter(
          "ides_eval_jobs_total",
          "Jobs EvalContext walks visited, and those they re-placed (the "
          "others kept their reference records)",
          {{"kind", "visited"}}),
      telemetry().counter("ides_eval_jobs_total", "",
                          {{"kind", "replaced"}}),
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
  // stable on the input order. Any fixed order is a valid full pass, but
  // the schedules (and so every result) depend on which, so this one is
  // fixed: EvalContext's commit positions run in the same order.
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

/// The occupancy a job re-placed at commit position `pos` sees: the frozen
/// baseline, the reference records of earlier positions the walk kept, and
/// the records it re-placed so far. Reference records at `pos` and later,
/// and the old records of re-placed jobs, are invisible. The baseline's and
/// the reference's records are the snapshot's, told apart by their tags.
struct EvalContext::View {
  EvalContext& ctx;
  std::size_t pos;
  /// The first round the last findBusSlot scan read.
  std::int64_t scanFirst = 0;

  [[nodiscard]] bool visible(std::uint32_t tag) const {
    return tag == IncrementalMetrics::kUntagged ||
           (tag < pos && !ctx.replacedInWalk(tag));
  }

  [[nodiscard]] std::optional<PlatformState::BusPlacement> findBusSlot(
      std::size_t slot, Time ready, Time txTicks) {
    if (txTicks <= 0) {
      throw std::invalid_argument("findBusSlot: txTicks <= 0");
    }
    const PlatformState& baseline = ctx.ev_->baseline();
    const TdmaBus& bus = baseline.bus();
    const Time length = bus.slot(slot).length;
    if (txTicks > length) return std::nullopt;
    const IncrementalMetrics& snapshot = ctx.snapshot_;
    const std::int64_t rounds = baseline.roundCount();
    scanFirst = bus.firstRoundAtOrAfter(slot, std::max<Time>(ready, 0));
    for (std::int64_t round = scanFirst; round < rounds; ++round) {
      const std::size_t occ = snapshot.occurrence(slot, round);
      // The current application only adds ticks to the baseline's.
      Time used = snapshot.untaggedTicks(occ);
      if (used + txTicks > length) continue;
      for (const IncrementalMetrics::BusRecord& rec :
           snapshot.busRecords(occ)) {
        if (visible(rec.tag)) used += rec.ticks;
      }
      used += ctx.viewBusTicks_[occ];
      if (used + txTicks <= length) {
        const Time start = bus.slotStart(round, slot) + used;
        return PlatformState::BusPlacement{round, start, start + txTicks};
      }
    }
    return std::nullopt;
  }

  /// Follows a successful findBusSlot: the ticks join the walk's, and the
  /// scan's first round goes with the placed message.
  void occupyBus(std::size_t slot, std::int64_t round, Time txTicks) {
    const std::size_t occ = ctx.snapshot_.occurrence(slot, round);
    if (ctx.viewBusTicks_[occ] == 0) ctx.viewBusOccs_.push_back(occ);
    ctx.viewBusTicks_[occ] += txTicks;
    ctx.placedFirst_.push_back(scanFirst);
  }

  /// PlatformState::occupyEarliest over the visible records and the walk's
  /// own intervals, both sorted by start: a candidate [s, s + duration)
  /// that overlaps one cannot start before its end, so s jumps there until
  /// nothing overlaps. The new interval goes where the walk's scan stopped.
  Time occupyEarliest(NodeId node, Time after, Time duration) {
    if (duration <= 0) {
      throw std::invalid_argument("occupyEarliest: duration must be > 0");
    }
    using NodeRecord = IncrementalMetrics::NodeRecord;
    const std::vector<NodeRecord>& records = ctx.snapshot_.nodeRecords(node);
    std::vector<Interval>& own = ctx.viewNodes_[node.index()];
    const Time horizon = ctx.ev_->baseline().horizon();
    Time s = std::max<Time>(after, 0);
    auto r = std::partition_point(
        records.begin(), records.end(),
        [s](const NodeRecord& rec) { return rec.end <= s; });
    auto w = std::partition_point(
        own.begin(), own.end(),
        [s](const Interval& iv) { return iv.end <= s; });
    for (;;) {
      const Time e = s + duration;
      if (e > horizon) return kNoTime;
      while (r != records.end() && r->end <= s) ++r;
      while (w != own.end() && w->end <= s) ++w;
      Time blocked = s;
      for (auto it = r; it != records.end() && it->start < e; ++it) {
        if (visible(it->tag)) blocked = std::max(blocked, it->end);
      }
      for (auto it = w; it != own.end() && it->start < e; ++it) {
        blocked = std::max(blocked, it->end);
      }
      if (blocked == s) break;
      s = blocked;
    }
    own.insert(w, {s, s + duration});
    return s;
  }
};

EvalContext::EvalContext(const SolutionEvaluator& evaluator)
    : ev_(&evaluator), sys_(&evaluator.system()) {
  const SystemModel& sys = *sys_;
  const std::vector<GraphId>& graphs = ev_->currentGraphs();
  const std::size_t jobCount = ev_->jobBase(graphs.size());
  jobs_.resize(jobCount);
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const ProcessGraph& graph = sys.graph(graphs[gi]);
    procs_.insert(procs_.end(), graph.processes.begin(),
                  graph.processes.end());
    msgs_.insert(msgs_.end(), graph.messages.begin(), graph.messages.end());
    const GraphJobOrder& order = ev_->jobOrders()[gi];
    for (std::size_t k = 0; k < order.jobCount(); ++k) {
      const auto flat = static_cast<std::size_t>(order.jobAt[k]);
      const auto instance =
          static_cast<std::int32_t>(flat / order.processCount);
      Job& job = jobs_[ev_->jobBase(gi) + k];
      job.pid = graph.processes[flat % order.processCount];
      job.instance = instance;
      job.release = graph.releaseOf(instance);
      job.deadline = graph.deadlineOf(instance);
      job.period = graph.period;
      job.graph = static_cast<std::uint32_t>(gi);
    }
  }
  inputBegin_.reserve(jobCount + 1);
  outputBegin_.reserve(jobCount + 1);
  for (const Job& job : jobs_) {
    inputBegin_.push_back(static_cast<std::uint32_t>(inputMessage_.size()));
    for (const MessageId m : sys.inputsOf(job.pid)) {
      inputMessage_.push_back(m);
      sourcePos_.push_back(static_cast<std::uint32_t>(
          ev_->jobIndexOf(sys.message(m).src, job.instance)));
    }
    outputBegin_.push_back(static_cast<std::uint32_t>(destPos_.size()));
    for (const MessageId m : sys.outputsOf(job.pid)) {
      destPos_.push_back(static_cast<std::uint32_t>(
          ev_->jobIndexOf(sys.message(m).dst, job.instance)));
    }
  }
  inputBegin_.push_back(static_cast<std::uint32_t>(inputMessage_.size()));
  outputBegin_.push_back(static_cast<std::uint32_t>(destPos_.size()));
  inputs_.resize(inputMessage_.size());

  mustReplace_.assign(jobCount, 0);
  replacedAt_.assign(jobCount, 0);
  const PlatformState& baseline = ev_->baseline();
  const std::size_t nodes = baseline.nodeCount();
  const std::size_t slots = baseline.bus().slotCount();
  const std::size_t occurrences =
      slots * static_cast<std::size_t>(baseline.roundCount());
  nodeMoves_.resize(nodes);
  occChanged_.assign(occurrences, 0);
  viewNodes_.resize(nodes);
  viewBusTicks_.assign(occurrences, 0);
  snapshot_.rebuild(baseline, ev_->profile());
}

const std::vector<ScheduledMessage>& EvalContext::messages() const {
  if (messagesStale_) {
    messages_.clear();
    appendMessages(processes_.size(), messages_);
    messagesStale_ = false;
  }
  return messages_;
}

void EvalContext::appendMessages(std::size_t count,
                                 std::vector<ScheduledMessage>& out) const {
  for (std::size_t pos = 0; pos < count; ++pos) {
    for (std::size_t i = inputBegin(pos); i < inputBegin(pos + 1); ++i) {
      const BusInput& in = inputs_[i];
      if (in.round < 0) continue;
      out.push_back({inputMessage_[i], jobs_[pos].instance, in.slot,
                     in.round, in.start, in.end});
    }
  }
}

void EvalContext::beginWalk() {
  if (++stamp_ == 0) {  // wrapped: reset the lazily-aged stamps
    std::fill(mustReplace_.begin(), mustReplace_.end(), 0u);
    std::fill(replacedAt_.begin(), replacedAt_.end(), 0u);
    std::fill(occChanged_.begin(), occChanged_.end(), 0u);
    stamp_ = 1;
  }
  replaced_.clear();
  oldInputs_.clear();
  changedProcs_.clear();
  changedMsgs_.clear();
  firstDirty_ = jobs_.size();
  lastDirty_ = 0;
  anyMoved_ = false;
  for (IntervalSet& moves : nodeMoves_) moves.clear();
  for (std::vector<Interval>& own : viewNodes_) own.clear();
  for (const std::size_t occ : viewBusOccs_) viewBusTicks_[occ] = 0;
  viewBusOccs_.clear();
}

void EvalContext::markDirty(ProcessId p) {
  const std::int64_t instances =
      sys_->instanceCount(sys_->process(p).graph);
  for (std::int32_t k = 0; k < instances; ++k) {
    const std::size_t pos = ev_->jobIndexOf(p, k);
    mustReplace_[pos] = stamp_;
    firstDirty_ = std::min(firstDirty_, pos);
    lastDirty_ = std::max(lastDirty_, pos);
  }
}

std::size_t EvalContext::diff(const MappingSolution& solution) {
  if (!hasReference_) {
    lastDirty_ = jobs_.size();
    return 0;
  }
  for (const ProcessId p : procs_) {
    const bool nodeMoved = solution.nodeOf(p) != reference_.nodeOf(p);
    if (!nodeMoved && solution.startHint(p) == reference_.startHint(p)) {
      continue;
    }
    changedProcs_.push_back(p);
    markDirty(p);
    if (nodeMoved) {
      // Every output's destination reads this node as its source node.
      for (const MessageId m : sys_->outputsOf(p)) {
        markDirty(sys_->message(m).dst);
      }
    }
  }
  for (const MessageId m : msgs_) {
    if (solution.messageHint(m) == reference_.messageHint(m)) continue;
    changedMsgs_.push_back(m);
    markDirty(sys_->message(m).dst);
  }
  return firstDirty_;
}

bool EvalContext::keeps(std::size_t pos) const {
  // Rule 3: nothing moved inside the node window its first fit scanned.
  const ScheduledProcess& rec = processes_[pos];
  if (nodeMoves_[rec.node.index()].intersects({ests_[pos], rec.end})) {
    return false;
  }
  // Rule 4: no occurrence changed in the rounds each input's scan read,
  // from the first one (stored when the input was placed) to the placed
  // one.
  for (std::size_t i = inputBegin(pos); i < inputBegin(pos + 1); ++i) {
    const BusInput& in = inputs_[i];
    if (in.round < 0) continue;
    for (std::int64_t round = in.firstRound; round <= in.round; ++round) {
      if (occChanged_[snapshot_.occurrence(in.slot, round)] == stamp_) {
        return false;
      }
    }
  }
  return true;
}

void EvalContext::markChanged(const BusInput& in) {
  if (in.round >= 0) {
    occChanged_[snapshot_.occurrence(in.slot, in.round)] = stamp_;
  }
}

bool EvalContext::replace(const MappingSolution& solution, std::size_t pos) {
  const Job& job = jobs_[pos];
  const NodeId node = solution.nodeOf(job.pid);
  if (!node.valid() || !sys_->process(job.pid).allowedOn(node)) {
    throw std::invalid_argument(
        "scheduleGraphs: mapping assigns a disallowed node");
  }
  const std::size_t in0 = inputBegin(pos);
  const std::size_t in1 = inputBegin(pos + 1);
  replacedAt_[pos] = stamp_;
  Replaced& r = replaced_.emplace_back();
  r.pos = static_cast<std::uint32_t>(pos);
  r.oldInputs = static_cast<std::uint32_t>(oldInputs_.size());
  r.old = processes_[pos];
  r.oldArrival = arrivals_[pos];
  r.oldEst = ests_[pos];
  oldInputs_.insert(oldInputs_.end(), inputs_.begin() + in0,
                    inputs_.begin() + in1);

  placedMessages_.clear();
  placedFirst_.clear();
  View view{*this, pos};
  const JobPlacement placed = placeJob(
      *sys_, view, job.pid, job.instance, job.release, job.period, node,
      solution,
      [this, in0](std::size_t input, ProcessId) {
        return processes_[sourcePos_[in0 + input]].end;
      },
      placedMessages_);
  if (!placed.placed) return false;
  processes_[pos] = {job.pid, job.instance, node, placed.start, placed.end};
  arrivals_[pos] = placed.arrival;
  ests_[pos] = placed.est;
  // placeJob emits the bus inputs in input order; the others ran locally.
  std::size_t k = 0;
  for (std::size_t i = in0; i < in1; ++i) {
    if (k < placedMessages_.size() &&
        placedMessages_[k].mid == inputMessage_[i]) {
      const ScheduledMessage& sm = placedMessages_[k];
      inputs_[i] = {sm.round, sm.start, sm.end,
                    static_cast<std::uint32_t>(sm.slotIndex), placedFirst_[k]};
      ++k;
    } else {
      inputs_[i] = BusInput{};
    }
  }
  if (!hasReference_) return true;  // the first walk re-places every job

  // What later keep tests must see: moved intervals (rule 3), a moved end
  // (rule 2, marked on the destinations) and occurrences that gained or
  // lost a message (rule 4). A job re-placed onto its old records changes
  // none of them.
  r.nodeMoved = r.old.node != node || r.old.start != placed.start;
  if (r.nodeMoved) {
    nodeMoves_[r.old.node.index()].add({r.old.start, r.old.end});
    nodeMoves_[node.index()].add({placed.start, placed.end});
    anyMoved_ = true;
  }
  if (r.old.end != placed.end) {
    for (std::size_t o = outputBegin_[pos]; o < outputBegin_[pos + 1]; ++o) {
      mustReplace_[destPos_[o]] = stamp_;
    }
    anyMoved_ = true;
  }
  for (std::size_t i = in0; i < in1; ++i) {
    const BusInput& before = oldInputs_[r.oldInputs + (i - in0)];
    const BusInput& now = inputs_[i];
    if (before.sameOccurrence(now)) continue;
    markChanged(before);
    markChanged(now);
    anyMoved_ = true;
  }
  return true;
}

void EvalContext::commit(const MappingSolution& solution) {
  messagesStale_ = true;
  const auto addNode = [this](const ScheduledProcess& sp, std::size_t pos) {
    snapshot_.occupyNode(sp.node, {sp.start, sp.end},
                         static_cast<std::uint32_t>(pos));
  };
  const auto addBus = [this](const BusInput& in, std::size_t pos) {
    snapshot_.occupyBus(in.slot, in.round, in.end - in.start,
                        static_cast<std::uint32_t>(pos));
  };
  if (!hasReference_) {
    // The first complete walk re-placed every job.
    reference_ = solution;
    for (std::size_t pos = 0; pos < jobs_.size(); ++pos) {
      addNode(processes_[pos], pos);
      for (std::size_t i = inputBegin(pos); i < inputBegin(pos + 1); ++i) {
        if (inputs_[i].round >= 0) addBus(inputs_[i], pos);
      }
    }
    return;
  }

  // Release every moved record before occupying any replacement: a new
  // record may take the place an old one of another job leaves.
  for (const Replaced& r : replaced_) {
    if (r.nodeMoved) {
      snapshot_.releaseNode(r.old.node, {r.old.start, r.old.end});
    }
    const BusInput* old = oldInputs_.data() + r.oldInputs;
    for (std::size_t i = inputBegin(r.pos); i < inputBegin(r.pos + 1);
         ++i, ++old) {
      const BusInput& before = *old;
      if (before.round < 0 || before.sameOccurrence(inputs_[i])) continue;
      snapshot_.releaseBus(before.slot, before.round,
                           before.end - before.start, r.pos);
    }
  }
  for (const Replaced& r : replaced_) {
    if (r.nodeMoved) addNode(processes_[r.pos], r.pos);
    const BusInput* old = oldInputs_.data() + r.oldInputs;
    for (std::size_t i = inputBegin(r.pos); i < inputBegin(r.pos + 1);
         ++i, ++old) {
      const BusInput& now = inputs_[i];
      if (now.round >= 0 && !now.sameOccurrence(*old)) addBus(now, r.pos);
    }
  }
  for (const ProcessId p : changedProcs_) {
    reference_.setNode(p, solution.nodeOf(p));
    reference_.setStartHint(p, solution.startHint(p));
  }
  for (const MessageId m : changedMsgs_) {
    reference_.setMessageHint(m, solution.messageHint(m));
  }
}

void EvalContext::undo() {
  if (!hasReference_) {
    processes_.clear();
    arrivals_.clear();
    ests_.clear();
    return;
  }
  for (const Replaced& r : replaced_) {
    processes_[r.pos] = r.old;
    arrivals_[r.pos] = r.oldArrival;
    ests_[r.pos] = r.oldEst;
    std::copy(oldInputs_.begin() + r.oldInputs,
              oldInputs_.begin() + r.oldInputs +
                  (inputBegin(r.pos + 1) - inputBegin(r.pos)),
              inputs_.begin() + inputBegin(r.pos));
  }
}

void EvalContext::fillOutcome(
    ScheduleOutcome& outcome, const MappingSolution& solution,
    const EvalResult& result, std::size_t processCount,
    const std::vector<ScheduledMessage>& messages) const {
  outcome.placed = result.placed;
  outcome.feasible = result.feasible;
  outcome.deadlineMisses = result.deadlineMisses;
  outcome.totalLateness = result.lateness;
  outcome.schedule = Schedule{};
  for (std::size_t pos = 0; pos < processCount; ++pos) {
    outcome.schedule.addProcess(processes_[pos]);
  }
  for (const ScheduledMessage& sm : messages) {
    outcome.schedule.addMessage(sm);
  }
  outcome.mapping = solution;
}

EvalResult EvalContext::evaluate(const MappingSolution& solution) {
  return run(solution, nullptr, nullptr);
}

EvalResult EvalContext::evaluate(const MappingSolution& solution,
                                 const MoveHint& /*hint*/) {
  return run(solution, nullptr, nullptr);
}

EvalResult EvalContext::evaluate(const MappingSolution& solution,
                                 ScheduleOutcome* outcomeOut,
                                 SlackInfo* slackOut) {
  return run(solution, outcomeOut, slackOut);
}

EvalResult EvalContext::run(const MappingSolution& solution,
                            ScheduleOutcome* outcomeOut, SlackInfo* slackOut) {
  const std::size_t jobCount = jobs_.size();
  const std::size_t graphCount = ev_->currentGraphs().size();
  EvalTelemetry& tele = evalTelemetry();
  ++evaluations_;
  tele.evaluations.add();

  beginWalk();
  const std::size_t first = diff(solution);
  if (first == jobCount && hasReference_) {
    // An exact re-read: the snapshot, the log and the cached result all
    // describe the solution verbatim.
    ++zeroDeltaServes_;
    tele.zeroDelta.add();
    lastRestartGraph_ = graphCount;
    lastRestartPos_ = 0;
    if (slackOut != nullptr && result_.feasible) snapshot_.slackInto(*slackOut);
    if (outcomeOut != nullptr) {
      fillOutcome(*outcomeOut, solution, result_, processes_.size(),
                  messages());
    }
    return result_;
  }
  lastRestartGraph_ = first < jobCount ? jobs_[first].graph : graphCount;
  lastRestartPos_ =
      first < jobCount ? first - ev_->jobBase(lastRestartGraph_) : 0;
  (lastRestartPos_ > 0 ? tele.midGraph : tele.graphStart).add();

  if (!hasReference_) {
    processes_.resize(jobCount);
    arrivals_.resize(jobCount);
    ests_.resize(jobCount);
  }
  // Totals move by the re-placed jobs' contributions only.
  int misses = hasReference_ ? misses_ : 0;
  Time lateness = hasReference_ ? lateness_ : 0;
  std::size_t visited = 0;
  std::size_t failedAt = jobCount;
  try {
    for (std::size_t pos = first; pos < jobCount; ++pos) {
      // Past the last dirty job, with nothing moved, every job keeps.
      if (pos > lastDirty_ && !anyMoved_) break;
      ++visited;
      if (hasReference_ && mustReplace_[pos] != stamp_ && keeps(pos)) {
        continue;
      }
      const Time deadline = jobs_[pos].deadline;
      const Time oldLate =
          hasReference_ ? latenessOf(processes_[pos].end, deadline) : 0;
      if (!replace(solution, pos)) {
        failedAt = pos;
        break;
      }
      const Time newLate = latenessOf(processes_[pos].end, deadline);
      misses += (newLate > 0 ? 1 : 0) - (oldLate > 0 ? 1 : 0);
      lateness += newLate - oldLate;
    }
  } catch (...) {
    undo();
    throw;
  }
  jobsVisited_ += visited;
  jobsReplaced_ += replaced_.size();
  tele.jobsVisited.add(visited);
  tele.jobsReplaced.add(replaced_.size());

  if (failedAt < jobCount) {
    // The full pass fails at the same job, after tallying every position
    // before it.
    misses = 0;
    lateness = 0;
    for (std::size_t p = 0; p < failedAt; ++p) {
      const Time late = latenessOf(processes_[p].end, jobs_[p].deadline);
      misses += late > 0 ? 1 : 0;
      lateness += late;
    }
    const EvalResult result = makeResult(false, misses, lateness);
    if (outcomeOut != nullptr) {
      // The partial schedule the full pass leaves: every position before
      // the failed job, plus the inputs it placed before failing.
      std::vector<ScheduledMessage> partial;
      appendMessages(failedAt, partial);
      partial.insert(partial.end(), placedMessages_.begin(),
                     placedMessages_.end());
      fillOutcome(*outcomeOut, solution, result, failedAt, partial);
    }
    undo();
    return result;
  }

  commit(solution);
  misses_ = misses;
  lateness_ = lateness;
  EvalResult result = makeResult(true, misses, lateness);
  if (result.feasible) {
    result.metrics = snapshot_.metrics();
    result.objective =
        objectiveValue(result.metrics, ev_->profile(), ev_->weights());
    result.cost = result.objective;
    if (slackOut != nullptr) snapshot_.slackInto(*slackOut);
  }
  result_ = result;
  hasReference_ = true;
  if (outcomeOut != nullptr) {
    fillOutcome(*outcomeOut, solution, result, processes_.size(),
                messages());
  }
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
