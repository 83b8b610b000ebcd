// Static cyclic list scheduler with slack (gap) insertion.
//
// Schedules process graphs — every instance inside the hyperperiod — onto a
// PlatformState that may already contain the frozen schedule of the existing
// applications. Placement only ever inserts into free gaps, so the paper's
// requirement (a) "no modifications are performed to the existing
// applications" holds by construction.
//
// Two modes:
//  * mapping mode  — every process's node is dictated by a MappingSolution
//    (used when evaluating a candidate solution inside MH/SA);
//  * HCP mode      — the scheduler also chooses the node, picking for each
//    ready process the allowed node with the earliest finish time. With the
//    partial-critical-path priority this is the Heterogeneous Critical Path
//    construction of Jorgensen & Madsen (CODES'97) that the paper's Initial
//    Mapping (IM) starts from.
//
// Graphs are scheduled one at a time, in the fixed order of the request.
// Graphs never exchange messages (messages connect processes of one graph),
// so the only coupling between them is the platform occupancy. Within a
// graph, jobs commit in the static order of computeJobOrder (see
// GraphJobOrder) in both modes: the ready-list discipline depends on the
// graph and the priorities only, never on which node a job lands on. The
// concatenated orders of a request's graphs are therefore fixed commit
// positions, which is what EvalContext's change-propagation walk runs over.
//
// One job is placed by placeJob: input messages first (bus packing), then
// the job itself (first fit on its node). SchedulerSession runs it against
// a PlatformState for every one-shot caller (scheduleGraphs, HCP, the
// Initial Mapping); EvalContext runs the same template against its
// positioned view of the reference schedule, so the placement rules exist
// once.
//
// Messages between processes on different nodes are scheduled into the TDMA
// slot of the sender's node at destination-scheduling time; same-node
// messages cost no bus time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/system_model.h"
#include "sched/mapping.h"
#include "sched/platform_state.h"
#include "sched/schedule.h"
#include "util/ids.h"

namespace ides {

struct ScheduleRequest {
  /// Graphs to schedule (normally all graphs of one application), in the
  /// deterministic order they are committed to the platform.
  std::vector<GraphId> graphs;
  /// Node assignment + hints. Required in mapping mode. In HCP mode, if
  /// non-null, hints are honored and any process whose entry already names
  /// a valid node is pinned to it (HCP chooses nodes only for the rest).
  const MappingSolution* mapping = nullptr;
  /// HCP mode: scheduler chooses nodes (earliest-finish-time).
  bool chooseNodes = false;
  /// Optional precomputed priorities, one vector per entry of `graphs`
  /// (criticalPathPriorities when null). They fix each graph's commit order
  /// (computeJobOrder); SolutionEvaluator passes the ones its EvalContexts
  /// schedule by, so a one-shot call commits in the same order.
  const std::vector<std::vector<double>>* priorities = nullptr;
};

/// Static commit order of one graph's jobs under a fixed priority vector.
///
/// The list scheduler takes the ready job with the highest priority next
/// (ties: earlier release, lower pid, lower instance), and a job becomes
/// ready when its last intra-instance input commits. Both rules read static
/// keys only — never the mapping, the node HCP picks or a placement result —
/// so the commit order is a pure function of (graph topology, priorities).
/// It is computed once per graph and SchedulerSession::scheduleGraph is
/// driven off it directly; EvalContext numbers the same positions to walk
/// them (core/evaluator.h).
struct GraphJobOrder {
  /// Dense job index: instance * processCount + local process index.
  std::vector<std::int32_t> jobAt;       ///< position -> flat job index
  std::vector<std::int32_t> positionOf;  ///< flat job index -> position
  std::size_t processCount = 0;

  [[nodiscard]] std::size_t jobCount() const { return jobAt.size(); }
};

/// Runs the ready-list discipline without placing anything, yielding the
/// static commit order (see GraphJobOrder). The only code that knows the
/// discipline; throws std::logic_error on a dependency cycle.
GraphJobOrder computeJobOrder(const SystemModel& sys, GraphId g,
                              const std::vector<double>& priorities);

struct ScheduleOutcome {
  /// Every process/message instance was placed inside the horizon.
  bool placed = false;
  /// placed, and every graph instance met its deadline.
  bool feasible = false;
  int deadlineMisses = 0;
  /// Sum over process instances of max(0, end - absolute deadline).
  Time totalLateness = 0;
  /// Entries created by this call only (not the frozen baseline).
  Schedule schedule;
  /// Node chosen for every scheduled process (copy of the input mapping in
  /// mapping mode, HCP choices otherwise).
  MappingSolution mapping;
};

/// Earliest time a message of `instance` may enter the bus: its source's
/// finish, delayed to the message's period-relative start hint.
[[nodiscard]] inline Time messageReady(Time sourceEnd, Time hint,
                                       std::int32_t instance, Time period) {
  return std::max(sourceEnd, hint + static_cast<Time>(instance) * period);
}

/// Lateness of a job ending at `end` against its absolute deadline; a
/// positive value is a deadline miss. The schedulers' tallies (misses,
/// total lateness) sum it over the committed jobs.
[[nodiscard]] inline Time latenessOf(Time end, Time absDeadline) {
  return std::max<Time>(0, end - absDeadline);
}

/// Where placeJob put one job; `placed` is false when an input message or
/// the job itself found no room inside the horizon.
struct JobPlacement {
  bool placed = false;
  /// Hint-independent arrival bound: release joined with the input
  /// arrivals. The start is the first fit at or after `est` = max(arrival,
  /// instance * period + start hint), which is what lets a hint change be
  /// proven schedule-identical without re-scheduling (see
  /// core/simulated_annealing.h's zero-delta filter).
  Time arrival = 0;
  Time est = 0;
  Time start = 0;
  Time end = 0;
};

/// Places one job of `pid` (instance `instance`, released at `release`,
/// graph period `period`) on `node`: every input message from another node
/// is packed into the first round of its sender's slot at or after its
/// ready time that still has room (appended to `messagesOut`), then the job
/// goes into the first gap of `node` at or after its arrival bound joined
/// with its start hint. The node must already be validated.
/// `sourceEnd(i, p)` is the finish time of the same instance of input
/// source `p`, the source of sys.inputsOf(pid)[i].
///
/// The list-scheduling rules live here once. `Occupancy` is what the job
/// is placed against: PlatformState in SchedulerSession, EvalContext's
/// positioned view in its change-propagation walk. It provides
///   findBusSlot(slot, ready, txTicks) -> std::optional<BusPlacement>,
///   occupyBus(slot, round, txTicks) and
///   occupyEarliest(node, after, duration) -> start or kNoTime,
/// with PlatformState's semantics. Bus commits are sequential, so each
/// input sees the occupancy the previous one left. On failure the messages
/// placed so far stay committed, as in scheduleGraph.
template <class Occupancy, class SourceEnd>
JobPlacement placeJob(const SystemModel& sys, Occupancy& occupancy,
                      ProcessId pid, std::int32_t instance, Time release,
                      Time period, NodeId node,
                      const MappingSolution& mapping,
                      const SourceEnd& sourceEnd,
                      std::vector<ScheduledMessage>& messagesOut) {
  const TdmaBus& bus = sys.architecture().bus();
  JobPlacement out;
  out.arrival = release;
  const std::vector<MessageId>& inputs = sys.inputsOf(pid);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const MessageId mId = inputs[i];
    const Message& msg = sys.message(mId);
    const NodeId srcNode = mapping.nodeOf(msg.src);
    const Time srcEnd = sourceEnd(i, msg.src);
    if (srcNode == node) {
      out.arrival = std::max(out.arrival, srcEnd);
      continue;
    }
    const std::size_t slot = bus.slotOfNode(srcNode);
    const Time txTicks = bus.transmissionTime(msg.sizeBytes);
    const auto placement = occupancy.findBusSlot(
        slot, messageReady(srcEnd, mapping.messageHint(mId), instance, period),
        txTicks);
    if (!placement) return out;
    occupancy.occupyBus(slot, placement->round, txTicks);
    messagesOut.push_back({mId, instance, slot, placement->round,
                           placement->start, placement->end});
    out.arrival = std::max(out.arrival, placement->end);
  }
  out.est = std::max(out.arrival, static_cast<Time>(instance) * period +
                                     mapping.startHint(pid));
  const Time wcet = sys.process(pid).wcetOn(node);
  const Time start = occupancy.occupyEarliest(node, out.est, wcet);
  if (start == kNoTime) return out;
  out.placed = true;
  out.start = start;
  out.end = start + wcet;
  return out;
}

/// Reusable one-graph-at-a-time scheduler bound to a model and a platform
/// state. Its scratch (the job pool and the process index) lives in the
/// session and is reused across calls, so the optimization inner loops
/// schedule without per-evaluation allocations.
class SchedulerSession {
 public:
  /// Per-graph tally. The aggregate flags of ScheduleOutcome are folded by
  /// the caller (placed = all graphs placed, feasible = placed and no
  /// misses).
  struct GraphResult {
    bool placed = false;
    int deadlineMisses = 0;
    Time totalLateness = 0;
  };

  /// Binds to `sys` and `state`; both must outlive the session.
  SchedulerSession(const SystemModel& sys, PlatformState& state);

  /// Schedules every instance of graph `g` in the static commit `order`,
  /// appending the committed entries to `processesOut` / `messagesOut` (in
  /// commit order) and occupying the bound state.
  ///
  /// A process whose entry in `mapping` names a node runs there; the node
  /// must be allowed (std::invalid_argument otherwise). Mapping mode passes
  /// `chosen` = null and needs a node for every process. HCP passes
  /// `chosen` = &mapping: a process without a node goes to the allowed node
  /// that finishes its first committed instance earliest against the
  /// current occupancy, and every choice is recorded into `chosen`, which
  /// pins the later instances.
  ///
  /// On a placement failure the state and the outputs keep the partial
  /// commits, input messages of the failing position included; one-shot
  /// callers discard them.
  GraphResult scheduleGraph(GraphId g, const MappingSolution& mapping,
                            MappingSolution* chosen,
                            const GraphJobOrder& order,
                            std::vector<ScheduledProcess>& processesOut,
                            std::vector<ScheduledMessage>& messagesOut);

 private:
  struct Job {
    ProcessId pid;
    std::int32_t instance = 0;
    Time release = 0;
    Time absDeadline = 0;
    Time end = kNoTime;  ///< finish time once committed
  };

  [[nodiscard]] Job& jobOf(ProcessId p, std::int32_t instance) {
    return jobs_[static_cast<std::size_t>(instance) * procCount_ +
                 static_cast<std::size_t>(procLocal_[p.index()])];
  }
  /// HCP: the allowed node with the earliest finish for `job`, evaluated
  /// against the current occupancy without committing anything (bus
  /// placements are not reserved between the inputs); invalid if none
  /// fits. Ties go to the lower node index.
  [[nodiscard]] NodeId earliestFinishNode(const Job& job,
                                          const MappingSolution& mapping,
                                          Time period);

  const SystemModel* sys_;
  PlatformState* state_;
  // Reusable scratch, refilled per graph. Jobs are indexed densely as
  // instance * procCount_ + local process index (via procLocal_), so the
  // loop runs without a single hash lookup.
  std::vector<Job> jobs_;
  std::vector<std::int32_t> procLocal_;  // by ProcessId::index(), per graph
  std::size_t procCount_ = 0;
};

/// Schedule `req.graphs` into `state`, graph by graph in request order, each
/// in its computeJobOrder order under `req.priorities`. On success the state
/// contains the new occupancy; if the outcome is not `placed`, the state is
/// partially updated and must be discarded by the caller.
ScheduleOutcome scheduleGraphs(const SystemModel& sys,
                               const ScheduleRequest& req,
                               PlatformState& state);

}  // namespace ides
