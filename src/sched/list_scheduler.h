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
// so the only coupling between them is the platform occupancy — which makes
// "the state after graph i" a well-defined checkpoint. SchedulerSession
// exposes exactly that: schedule one graph, observe the state, schedule the
// next. Combined with PlatformState's journal this is what lets EvalContext
// rewind to the first graph a move affects and re-schedule only from there.
//
// Within a graph, jobs commit in the static order of computeJobOrder (see
// GraphJobOrder) in both modes: the ready-list discipline depends on the
// graph and the priorities only, never on which node a job lands on, so one
// loop serves HCP, mapping mode and EvalContext's mid-graph restarts alike.
//
// Messages between processes on different nodes are scheduled into the TDMA
// slot of the sender's node at destination-scheduling time; same-node
// messages cost no bus time.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/mapping.h"
#include "sched/platform_state.h"
#include "sched/schedule.h"
#include "util/ids.h"

namespace ides {

class SystemModel;
struct Message;

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
/// driven off it directly, which is also what makes a mid-graph
/// (process-granular) restart well-defined: for a move that first affects
/// order position k, every position before k commits identically, so
/// re-scheduling the suffix [k, jobs) reproduces the full pass bit for bit.
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

  /// State snapshot taken immediately before committing one order position:
  /// journal mark plus output sizes and the graph-local running tallies.
  /// Rewinding a graph to position k is the same two-resize rollback as a
  /// whole-graph checkpoint, just finer.
  struct JobCheckpoint {
    PlatformState::Mark mark = 0;
    std::uint32_t processCount = 0;  ///< processesOut.size() before position
    std::uint32_t messageCount = 0;  ///< messagesOut.size() before position
    std::int32_t deadlineMisses = 0;  ///< graph-local, before this position
    Time lateness = 0;                ///< graph-local, before this position
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
  /// Resumable mid-graph: positions [0, resumeAt) must already be committed
  /// in the bound state, with their entries at processesOut[graphBase +
  /// position] (graphBase = processesOut.size() at the graph's whole-graph
  /// checkpoint) and their checkpoints in `marksOut`; only positions
  /// [resumeAt, jobs) are scheduled. When non-null, `marksOut` (resized to
  /// the order size; earlier entries untouched) receives one JobCheckpoint
  /// per scheduled position, and `arrivalsOut` the hint-independent arrival
  /// bound of every committed position at arrivalsOut[graphBase + position]:
  /// the earliest start permitted by release time and input-message
  /// arrivals alone. start == earliestFit(node, max(bound, period-relative
  /// hint)), which is what lets a hint change be proven schedule-identical
  /// without re-scheduling (see core/simulated_annealing.h's zero-delta
  /// filter). One-shot callers pass null for both.
  ///
  /// On a placement failure the state and the outputs keep the partial
  /// commits, input messages of the failing position included — rewind
  /// with a PlatformState mark (EvalContext) or discard them (one-shot
  /// callers).
  GraphResult scheduleGraph(GraphId g, const MappingSolution& mapping,
                            MappingSolution* chosen,
                            const GraphJobOrder& order, std::size_t resumeAt,
                            std::size_t graphBase,
                            std::vector<ScheduledProcess>& processesOut,
                            std::vector<ScheduledMessage>& messagesOut,
                            std::vector<JobCheckpoint>* marksOut,
                            std::vector<Time>* arrivalsOut);

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
  /// Earliest arrival of `msg` for instance `instance` (period `period`):
  /// the source's finish time, delayed to the message's start hint.
  [[nodiscard]] Time messageReady(const Message& msg, std::int32_t instance,
                                  const MappingSolution& mapping,
                                  Time period);
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
/// partially updated and must be discarded (or rewound via the journal) by
/// the caller.
ScheduleOutcome scheduleGraphs(const SystemModel& sys,
                               const ScheduleRequest& req,
                               PlatformState& state);

}  // namespace ides
