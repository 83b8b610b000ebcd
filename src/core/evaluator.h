// The evaluation pipeline shared by AH, MH, SA, PSA and tabu.
//
// SolutionEvaluator holds the frozen baseline (existing applications already
// committed to the platform) and, for a candidate MappingSolution of the
// current application:
//   1. starts from the baseline platform state,
//   2. list-schedules the current application under the candidate mapping,
//   3. extracts the remaining slack,
//   4. computes the design metrics and the objective C.
//
// Infeasible candidates get a penalty cost far above any feasible objective,
// graded by lateness so simulated annealing can still climb out.
//
// SolutionEvaluator::evaluate is the stateless full pass: it copies the
// baseline and re-schedules every graph. EvalContext is the engine the
// optimization inner loops use instead: it keeps the schedule of the last
// solution it placed (its reference) and, for a new solution,
// walks the commit order from the first job whose mapping entries differ,
// keeping every job whose placement inputs did not change and re-placing
// only the rest (change propagation). Both place jobs with the same rules
// (placeJob, sched/list_scheduler.h) in the same static commit order, and
// the walk's keep rule is exact, so results are bit-identical to the full
// pass by construction. A move hint is not needed for that: the context
// diffs the solution against its reference itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/future_profile.h"
#include "core/metrics.h"
#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sched/platform_state.h"
#include "sched/slack.h"

namespace ides {

class SystemModel;

struct EvalResult {
  bool placed = false;
  bool feasible = false;
  int deadlineMisses = 0;
  Time lateness = 0;
  DesignMetrics metrics;
  /// Objective C (valid when feasible).
  double objective = 0.0;
  /// What the strategies minimize: objective if feasible, penalty otherwise.
  double cost = 0.0;
};

/// What a design transformation touched: the graph whose mapping entries
/// (node, start hint, message hint) may differ from the previously
/// evaluated solution. EvalContext diffs every solution against its
/// reference, so a hint is never trusted and a wrong one costs nothing;
/// the strategies keep passing it as a description of the move.
struct MoveHint {
  GraphId graph;
  /// Informational: the process / message the move re-mapped, when any.
  ProcessId process;
  MessageId message;
};

class SolutionEvaluator {
 public:
  /// Cost assigned when the schedule misses deadlines (plus lateness).
  static constexpr double kMissPenalty = 1e6;
  /// Cost when the application cannot even be placed inside the horizon.
  static constexpr double kUnplacedPenalty = 1e7;

  /// `baseline` must already contain the frozen existing applications.
  /// `movableGraphs` is the set of graphs (re)scheduled per evaluation; the
  /// default — empty — means the AppKind::Current graphs. The modification
  /// extension passes current + unfrozen existing graphs instead.
  SolutionEvaluator(const SystemModel& sys, PlatformState baseline,
                    FutureProfile profile, MetricWeights weights,
                    std::vector<GraphId> movableGraphs = {});

  /// Stateless full-pass evaluation (copies the baseline every call). The
  /// inner loops use EvalContext instead; this stays as the one-shot API
  /// and as the reference the EvalContext tests compare against. It places
  /// jobs with the same rules, so it checks the walk's keep rule, the
  /// exact re-reads and the metrics snapshot, not the rules themselves (the
  /// scheduler suite checks those against a ready-heap reference).
  [[nodiscard]] EvalResult evaluate(const MappingSolution& solution) const;

  /// Full evaluation, optionally exposing the schedule and slack snapshot
  /// (used for final results).
  [[nodiscard]] EvalResult evaluate(const MappingSolution& solution,
                                    ScheduleOutcome* outcomeOut,
                                    SlackInfo* slackOut) const;

  /// Baseline copy with the given solution committed on top; the starting
  /// point for future-fit experiments.
  [[nodiscard]] PlatformState stateWith(const MappingSolution& solution) const;

  [[nodiscard]] const SystemModel& system() const { return *sys_; }
  [[nodiscard]] const PlatformState& baseline() const { return baseline_; }
  /// The movable graphs in the order the evaluator was given them (the
  /// AppKind::Current graphs by default): what a cold start maps.
  [[nodiscard]] const std::vector<GraphId>& movableGraphs() const {
    return movableGraphs_;
  }
  /// The same graphs in evaluation order (heaviest first).
  [[nodiscard]] const std::vector<GraphId>& currentGraphs() const {
    return currentGraphs_;
  }
  [[nodiscard]] const FutureProfile& profile() const { return profile_; }
  [[nodiscard]] const MetricWeights& weights() const { return weights_; }
  [[nodiscard]] const std::vector<std::vector<double>>& priorities() const {
    return priorities_;
  }

  /// Static per-graph commit orders, parallel to currentGraphs(). A pure
  /// function of (topology, priorities) — see GraphJobOrder — computed once
  /// here so every EvalContext numbers the same commit positions.
  [[nodiscard]] const std::vector<GraphJobOrder>& jobOrders() const {
    return orders_;
  }
  /// Index of `g` in currentGraphs(), or currentGraphs().size() if absent.
  [[nodiscard]] std::size_t graphIndexOf(GraphId g) const;
  /// First slot of graph `gi`'s segment in a fully placed commit-order
  /// schedule log (sum of the earlier graphs' job counts). jobBase(n) is
  /// the total job count.
  [[nodiscard]] std::size_t jobBase(std::size_t gi) const {
    return jobBase_[gi];
  }
  /// Position of (p, instance) in a fully placed commit-order schedule log:
  /// segment base plus static order position. Only valid for processes of
  /// current graphs.
  [[nodiscard]] std::size_t jobIndexOf(ProcessId p,
                                       std::int32_t instance) const;
  /// Index of `p` within its graph's process list.
  [[nodiscard]] std::int32_t localProcessIndex(ProcessId p) const {
    return procLocal_[static_cast<std::size_t>(p.index())];
  }

 private:
  const SystemModel* sys_;
  PlatformState baseline_;
  FutureProfile profile_;
  MetricWeights weights_;
  std::vector<GraphId> movableGraphs_;
  std::vector<GraphId> currentGraphs_;
  std::vector<std::vector<double>> priorities_;  // per current graph
  std::vector<GraphJobOrder> orders_;            // per current graph
  std::vector<std::size_t> jobBase_;             // per current graph, + total
  std::vector<std::size_t> graphIdx_;            // by GraphId::index()
  std::vector<std::size_t> procGraph_;           // by ProcessId::index()
  std::vector<std::int32_t> procLocal_;          // by ProcessId::index()
};

/// Reusable per-thread evaluation scratch for a reference solution (the
/// last evaluated solution that placed every job): its commit-order
/// schedule log and one IncrementalMetrics snapshot that holds the frozen
/// baseline's records and the reference's, each tagged with its commit
/// position. The walk's positioned view reads those records, and the
/// metrics and the slack output are read from the same snapshot.
///
/// evaluate() diffs the solution against the reference and walks the
/// commit positions from the first job whose mapping entries differ. A job
/// keeps its reference records untouched when
///   1. its process's node and start hint, and every input message's hint
///      and source node, equal the reference's;
///   2. every input source kept its end time;
///   3. no record that moved earlier in the walk (old or new interval)
///      overlaps [est, end) on its node, est being where its first-fit
///      scan started (the arrival bound joined with the start hint);
///   4. for each bus input, no slot occurrence that gained or lost a
///      message earlier in the walk lies in that slot's rounds from the
///      first one at or after the message's ready time to the one it was
///      placed in.
/// The list scheduler places a job by a first fit over that node window
/// and each input by a scan over those rounds, and reads nothing else, so
/// by induction over the commit order a kept job sits exactly where the
/// full pass would put it (change propagation, as in Acar, Blelloch and
/// Harper, "Adaptive Functional Programming", POPL 2002). Every other job
/// is re-placed by placeJob against the frozen baseline plus the records of
/// earlier positions; the reference's later records are invisible to it.
/// The change lists are indexed: rule 3 is one binary search in the moved
/// intervals, coalesced per node; rule 4 reads the walk's stamps on slots
/// and occurrences over the rounds from the first one, stored with the
/// input when its scan placed it, to the placed one. The stored round stays
/// valid while the job keeps, since a new source end or hint re-places it
/// (rules 1 and 2).
///
/// A walk that places every job applies its records to the snapshot once
/// (release every moved record, then occupy its replacement, so each moved
/// record is edited once) and makes the solution the new reference. A walk
/// that cannot place a job, or throws, undoes its record changes and keeps
/// the previous reference; the snapshot was never touched.
/// Evaluating the reference again (MH re-reading its incumbent, a final
/// evaluation) re-places nothing and returns the cached result. A move that
/// leaves the schedule unchanged is walked like any other; proving that
/// before evaluating is the caller's business (SA's ZeroDeltaFilter,
/// core/simulated_annealing.h). Not thread-safe: each optimization thread
/// owns its own context (the underlying SolutionEvaluator is shared and
/// const).
class EvalContext {
 public:
  explicit EvalContext(const SolutionEvaluator& evaluator);

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Evaluates `solution` by a walk from its first difference to the
  /// reference (over every job while there is no reference).
  EvalResult evaluate(const MappingSolution& solution);

  /// Same; `hint` describes the move but is not needed (see MoveHint).
  EvalResult evaluate(const MappingSolution& solution, const MoveHint& hint);

  /// Same, exposing the schedule and slack snapshot, like
  /// SolutionEvaluator::evaluate(solution, outcomeOut, slackOut); either
  /// may be null. The slack is written for feasible results only.
  EvalResult evaluate(const MappingSolution& solution,
                      ScheduleOutcome* outcomeOut, SlackInfo* slackOut);

  [[nodiscard]] const SolutionEvaluator& evaluator() const { return *ev_; }

  /// Telemetry over the lifetime of the context: evaluations, commit
  /// positions the walks looked at, and jobs they re-placed (the rest kept
  /// their records).
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::size_t jobsVisited() const { return jobsVisited_; }
  [[nodiscard]] std::size_t jobsReplaced() const { return jobsReplaced_; }
  /// Evaluations answered from the cached result because the solution was
  /// exactly the reference (an exact re-read).
  [[nodiscard]] std::size_t zeroDeltaServes() const {
    return zeroDeltaServes_;
  }
  /// First position of the last evaluate()'s walk: graph index (== graph
  /// count for an exact re-read) and the commit-order position within that
  /// graph. Bench telemetry for the mid-graph / graph-start breakdown.
  [[nodiscard]] std::size_t lastRestartGraph() const {
    return lastRestartGraph_;
  }
  [[nodiscard]] std::size_t lastRestartPosition() const {
    return lastRestartPos_;
  }

  /// Commit-order schedule log of the reference solution (complete when
  /// resultValid()), and the hint-independent arrival bound of every entry:
  /// the earliest start permitted by release time and input-message
  /// arrivals, before the start hint joins. Indexable via
  /// SolutionEvaluator::jobIndexOf. The zero-delta proposal filter
  /// (core/simulated_annealing.h) snapshots these to prove hint moves
  /// schedule-identical without evaluating them.
  [[nodiscard]] const std::vector<ScheduledProcess>& processes() const {
    return processes_;
  }
  /// The bus messages of the same log, in commit order (assembled on the
  /// first read after a walk). MH's potential analysis reads both right
  /// after re-evaluating its incumbent.
  [[nodiscard]] const std::vector<ScheduledMessage>& messages() const;
  [[nodiscard]] const std::vector<Time>& arrivalBounds() const {
    return arrivals_;
  }
  /// A walk has placed every job: the reference exists, its result is
  /// cached and the log above is complete. An unplaced evaluation leaves
  /// the previous reference in place.
  [[nodiscard]] bool resultValid() const { return hasReference_; }

 private:
  struct View;

  /// Static data of one commit position.
  struct Job {
    ProcessId pid;
    std::int32_t instance = 0;
    Time release = 0;
    Time deadline = 0;  ///< absolute
    Time period = 0;
    std::uint32_t graph = 0;  ///< index into currentGraphs()
  };
  /// Where one input message of a job crossed the bus: slot occurrence,
  /// transmission and the first round its scan read (rule 4's range runs
  /// from there to `round`); round < 0 when the source ran on the same
  /// node.
  struct BusInput {
    std::int64_t round = -1;
    Time start = 0;
    Time end = 0;
    std::uint32_t slot = 0;
    std::int64_t firstRound = 0;

    /// Same occupancy: same occurrence (or both local). The start may
    /// differ, the ticks cannot (same message).
    [[nodiscard]] bool sameOccurrence(const BusInput& o) const {
      return round == o.round && slot == o.slot;
    }
  };
  /// A job the walk re-placed, with its reference records (to undo or
  /// release): the process record here, its inputs in oldInputs_.
  struct Replaced {
    std::uint32_t pos = 0;
    std::uint32_t oldInputs = 0;
    ScheduledProcess old;
    Time oldArrival = 0;
    Time oldEst = 0;
    bool nodeMoved = false;  ///< node interval differs from the old one
  };

  EvalResult run(const MappingSolution& solution, ScheduleOutcome* outcomeOut,
                 SlackInfo* slackOut);
  /// Starts a walk: a fresh stamp and empty change lists.
  void beginWalk();
  /// Marks the jobs that fail rule 1 against the reference and returns the
  /// first of their positions (the position count when the solution is the
  /// reference). Without a reference every job is re-placed.
  std::size_t diff(const MappingSolution& solution);
  /// Marks every job of `p` for re-placement.
  void markDirty(ProcessId p);
  /// Rules 3 and 4 for the reference job at `pos` (rules 1 and 2 are the
  /// mustReplace_ mark).
  [[nodiscard]] bool keeps(std::size_t pos) const;
  /// Stamps the occurrence of a bus input (none for a local one) as
  /// changed in this walk, for rule 4.
  void markChanged(const BusInput& in);
  /// Re-places the job at `pos` against the positioned view; false if it
  /// finds no room.
  bool replace(const MappingSolution& solution, std::size_t pos);
  /// Makes the walk's solution the reference: the snapshot's records and
  /// the mapping entries.
  void commit(const MappingSolution& solution);
  /// Restores the reference records an unplaced walk overwrote.
  void undo();
  /// Appends the bus messages of positions [0, count) in commit order.
  void appendMessages(std::size_t count,
                      std::vector<ScheduledMessage>& out) const;
  [[nodiscard]] bool replacedInWalk(std::size_t pos) const {
    return replacedAt_[pos] == stamp_;
  }
  [[nodiscard]] std::size_t inputBegin(std::size_t pos) const {
    return inputBegin_[pos];
  }

  /// The outcome of `result`: positions [0, processCount) of the log and
  /// `messages`.
  void fillOutcome(ScheduleOutcome& outcome, const MappingSolution& solution,
                   const EvalResult& result, std::size_t processCount,
                   const std::vector<ScheduledMessage>& messages) const;

  const SolutionEvaluator* ev_;
  const SystemModel* sys_;

  // ---- static layout --------------------------------------------------
  std::vector<Job> jobs_;  ///< per commit position
  /// Per position, plus the total: its inputs' index range in the per-input
  /// arrays below (sys.inputsOf order).
  std::vector<std::uint32_t> inputBegin_;
  std::vector<MessageId> inputMessage_;
  std::vector<std::uint32_t> sourcePos_;  ///< position of the input's source
  /// Per position, plus the total: its outputs' destination positions.
  std::vector<std::uint32_t> outputBegin_;
  std::vector<std::uint32_t> destPos_;
  std::vector<ProcessId> procs_;  ///< current graphs' processes
  std::vector<MessageId> msgs_;   ///< current graphs' messages

  // ---- the reference ----------------------------------------------------
  MappingSolution reference_;
  bool hasReference_ = false;
  /// Per commit position: the record, the arrival bound and the start of
  /// its first-fit scan (est).
  std::vector<ScheduledProcess> processes_;
  std::vector<Time> arrivals_;
  std::vector<Time> ests_;
  std::vector<BusInput> inputs_;  ///< per input
  /// messages() in commit order, assembled from inputs_ when stale.
  mutable std::vector<ScheduledMessage> messages_;
  mutable bool messagesStale_ = false;
  int misses_ = 0;      ///< deadline misses of the reference
  Time lateness_ = 0;   ///< total lateness of the reference
  /// Cached result of the reference; served verbatim by an exact re-read.
  EvalResult result_;

  // ---- one walk's scratch -----------------------------------------------
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> mustReplace_;  ///< per position: rules 1, 2
  std::vector<std::uint32_t> replacedAt_;    ///< per position
  std::vector<Replaced> replaced_;
  std::vector<BusInput> oldInputs_;
  std::vector<ScheduledMessage> placedMessages_;  ///< placeJob's output
  std::vector<ProcessId> changedProcs_;
  std::vector<MessageId> changedMsgs_;
  /// First and last position markDirty marked.
  std::size_t firstDirty_ = 0;
  std::size_t lastDirty_ = 0;
  bool anyMoved_ = false;
  /// Rule 3: per node, the old and new intervals of moved records,
  /// coalesced, so a keep test is one binary search.
  std::vector<IntervalSet> nodeMoves_;
  /// Rule 4: the walk's stamp on every slot occurrence that gained or lost
  /// a message.
  std::vector<std::uint32_t> occChanged_;
  /// What the view adds on top of the visible reference records: per node
  /// the re-placed intervals sorted by start, per occurrence the re-placed
  /// messages' ticks (the occurrences holding any are listed for the
  /// reset).
  std::vector<std::vector<Interval>> viewNodes_;
  std::vector<Time> viewBusTicks_;
  std::vector<std::size_t> viewBusOccs_;
  /// The first round of each scan that placed one of placedMessages_.
  std::vector<std::int64_t> placedFirst_;

  /// The reference schedule: the baseline's records (untagged) and the
  /// reference's (tagged with their commit positions), and the free
  /// capacity they leave. Every committed walk edits its records.
  IncrementalMetrics snapshot_;

  std::size_t evaluations_ = 0;
  std::size_t jobsVisited_ = 0;
  std::size_t jobsReplaced_ = 0;
  std::size_t zeroDeltaServes_ = 0;
  std::size_t lastRestartGraph_ = 0;
  std::size_t lastRestartPos_ = 0;
};

/// Fixed-size pool of per-worker EvalContexts over one shared evaluator —
/// the substrate of speculative evaluation (core/speculative_eval.h). Each
/// worker owns context [w] exclusively. A context
/// whose reference falls behind the committed solution re-aligns on its
/// next evaluate: its walk starts at the first position where its own
/// reference disagrees.
class EvalContextPool {
 public:
  EvalContextPool(const SolutionEvaluator& evaluator, std::size_t size);

  EvalContextPool(const EvalContextPool&) = delete;
  EvalContextPool& operator=(const EvalContextPool&) = delete;

  [[nodiscard]] std::size_t size() const { return contexts_.size(); }
  [[nodiscard]] EvalContext& operator[](std::size_t w) {
    return contexts_[w];
  }

 private:
  std::deque<EvalContext> contexts_;  // deque: EvalContext is pinned
};

}  // namespace ides
