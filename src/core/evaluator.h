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
// baseline and re-schedules every graph. EvalContext is the delta-aware
// engine the optimization inner loops use instead: one journaled platform
// state per context (per thread), a checkpoint after every scheduled graph,
// and evaluate(solution, MoveHint) rewinds to the checkpoint before the
// first graph the move affects and re-schedules only from there. Both run
// the same scheduling loop (SchedulerSession::scheduleGraph) in the same
// static commit order. Results are bit-identical to the full pass by
// construction — the context verifies (never trusts) the hint by diffing
// the prefix graphs against the last evaluated solution, so a stale hint
// costs performance, not correctness.
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
/// evaluated solution. Everything outside `graph` must be unchanged — the
/// context re-checks the graphs scheduled before it and restarts earlier if
/// the claim turns out wrong (e.g. after a rejected SA move).
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
  /// and as the reference the EvalContext tests compare against. It runs
  /// the same scheduling loop, so it checks the rewinds, the exact
  /// re-reads and the metrics cache, not the loop itself (the scheduler
  /// suite checks that against a ready-heap reference).
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
  /// here so every EvalContext can restart a graph mid-order.
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

/// Reusable per-thread evaluation scratch: one journaled platform state, a
/// scheduler session bound to it, the accumulated schedule of the current
/// graphs, and checkpoints at two granularities — one (journal mark +
/// schedule prefix + running tallies) before every graph, and one
/// JobCheckpoint before every commit-order position inside a graph.
///
/// evaluate(solution) is a full pass; evaluate(solution, hint) diffs the
/// solution against the last evaluated one, rewinds to the fine checkpoint
/// before the first commit-order position whose placement can differ, and
/// re-schedules only the suffix from there (the graphs after the restart
/// graph re-schedule whole, from their own checkpoints). An
/// IncrementalMetrics snapshot is kept in sync from the platform journal's
/// dirty entries, so C1 containers and C2 window minima are recomputed only
/// where occupancy changed. The hint and output overloads, given exactly the
/// solution last evaluated (MH re-reading its incumbent, a final
/// evaluation), re-schedule nothing and return the cached result. A move
/// that leaves the schedule unchanged is re-scheduled like any other;
/// proving that before evaluating is the caller's business (SA's
/// ZeroDeltaFilter, core/simulated_annealing.h).
/// Results stay bit-identical to the full pass by construction — the
/// context verifies (never trusts) the hint, so a stale hint costs
/// performance, not correctness. Not thread-safe: each optimization thread
/// owns its own context (the underlying SolutionEvaluator is shared and
/// const).
class EvalContext {
 public:
  explicit EvalContext(const SolutionEvaluator& evaluator);

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Full pass: re-schedules every graph (and refreshes all checkpoints).
  EvalResult evaluate(const MappingSolution& solution);

  /// Delta pass: re-schedules from the first graph affected by the move.
  EvalResult evaluate(const MappingSolution& solution, const MoveHint& hint);

  /// Full pass exposing the schedule and slack snapshot, like
  /// SolutionEvaluator::evaluate(solution, outcomeOut, slackOut); either
  /// may be null. When the solution is exactly the one last evaluated (MH
  /// re-reading the slack after an applied move), nothing is re-scheduled.
  EvalResult evaluate(const MappingSolution& solution,
                      ScheduleOutcome* outcomeOut, SlackInfo* slackOut);

  [[nodiscard]] const SolutionEvaluator& evaluator() const { return *ev_; }

  /// Telemetry: graphs actually (re)scheduled vs. graphs served from a
  /// checkpoint, over the lifetime of the context.
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::size_t graphsScheduled() const {
    return graphsScheduled_;
  }
  [[nodiscard]] std::size_t graphsReused() const { return graphsReused_; }
  /// Evaluations answered from the cached result because the solution was
  /// exactly the one last evaluated (an exact re-read).
  [[nodiscard]] std::size_t zeroDeltaServes() const {
    return zeroDeltaServes_;
  }
  /// Restart point of the last evaluate(): graph index (== graph count when
  /// the cached result was served without touching the state) and the
  /// commit-order position within that graph. Bench telemetry for the
  /// rewind-depth breakdown.
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
  /// The bus messages of the same log, in commit order. MH's potential
  /// analysis reads both right after re-evaluating its incumbent.
  [[nodiscard]] const std::vector<ScheduledMessage>& messages() const {
    return messages_;
  }
  [[nodiscard]] const std::vector<Time>& arrivalBounds() const {
    return arrivals_;
  }
  /// Last evaluation placed every graph; its result is cached and the log
  /// above is complete.
  [[nodiscard]] bool resultValid() const { return resultValid_; }

 private:
  struct Checkpoint {
    PlatformState::Mark mark = 0;
    std::size_t processCount = 0;
    std::size_t messageCount = 0;
    int deadlineMisses = 0;  ///< cumulative, before this graph
    Time lateness = 0;       ///< cumulative, before this graph
  };

  /// True if `a` and `b` agree on every entry of graph `gi`'s processes and
  /// messages.
  [[nodiscard]] bool graphEntriesEqual(const MappingSolution& a,
                                       const MappingSolution& b,
                                       std::size_t gi) const;
  /// First graph index that must be re-scheduled for `solution`, given the
  /// hinted graph index (verified against the reference solution).
  [[nodiscard]] std::size_t restartIndex(const MappingSolution& solution,
                                         std::size_t hintIndex) const;
  /// First commit-order position of graph `gi` whose placement can differ
  /// between the reference and `solution` (jobCount if the graph is
  /// unchanged): the min over changed processes' instances — and changed
  /// messages' destination instances — of the static order position. Every
  /// reader of a changed entry commits at or after it, so the prefix
  /// before it commits identically.
  [[nodiscard]] std::size_t restartPosition(const MappingSolution& solution,
                                            std::size_t gi) const;

  /// Dirty tracking for the metrics cache: reset the per-evaluation stamp,
  /// then collect the journal records in [from, state mark) — called once
  /// before the rollback and once after re-scheduling, so the dirty set
  /// covers both the undone and the newly committed occupancy.
  void beginDirty();
  void collectDirty(PlatformState::Mark from);

  void fillOutcome(ScheduleOutcome& outcome, const MappingSolution& solution,
                   const EvalResult& result) const;

  EvalResult run(const MappingSolution& solution, std::size_t firstGraph,
                 std::size_t firstPos, ScheduleOutcome* outcomeOut,
                 SlackInfo* slackOut);

  const SolutionEvaluator* ev_;
  const SystemModel* sys_;
  PlatformState state_;       // baseline copy, journaling enabled
  SchedulerSession session_;  // bound to state_
  /// Current graphs' entries for `reference_`, in commit order. A plain
  /// prefix-truncatable log — rewinding to a checkpoint is two resizes.
  std::vector<ScheduledProcess> processes_;
  std::vector<ScheduledMessage> messages_;
  SlackInfo slack_;  // reusable snapshot buffer

  /// The solution the checkpoints describe (last evaluated).
  MappingSolution reference_;
  bool hasReference_ = false;
  /// checkpoints_[i] = state before graph i; [graphCount] = final state.
  std::vector<Checkpoint> checkpoints_;
  /// Graphs of `reference_` currently committed in `state_` (a failed
  /// placement leaves only the prefix before the failed graph).
  std::size_t validGraphs_ = 0;

  /// Fine checkpoints: one JobCheckpoint per commit-order position, per
  /// graph; fineCount_[gi] positions are valid (jobCount once the graph is
  /// committed, 0 after a failure there).
  std::vector<std::vector<SchedulerSession::JobCheckpoint>> fineMarks_;
  std::vector<std::size_t> fineCount_;
  /// Hint-independent arrival bound per committed entry (see
  /// arrivalBounds()), parallel to processes_.
  std::vector<Time> arrivals_;

  /// Cached result of the last fully placed evaluation; served verbatim by
  /// an exact re-read (the state still holds that solution).
  EvalResult result_;
  bool resultValid_ = false;

  /// Metrics snapshot kept in sync from the journal's dirty entries.
  IncrementalMetrics metricsCache_;
  std::vector<std::uint32_t> dirtyNodes_;
  std::vector<std::uint64_t> dirtyOccs_;
  std::vector<std::uint32_t> nodeStamp_;  // per node, == stamp_ if dirty
  std::vector<std::uint32_t> occStamp_;   // per slot occurrence
  std::uint32_t stamp_ = 0;

  std::size_t evaluations_ = 0;
  std::size_t graphsScheduled_ = 0;
  std::size_t graphsReused_ = 0;
  std::size_t zeroDeltaServes_ = 0;
  std::size_t lastRestartGraph_ = 0;
  std::size_t lastRestartPos_ = 0;
};

/// Fixed-size pool of per-worker EvalContexts over one shared evaluator —
/// the substrate of speculative evaluation (core/speculative_eval.h). Each
/// worker owns context [w] exclusively. A context
/// whose reference falls behind the committed solution re-aligns on its
/// next evaluate: the verified hint triggers a rewind to its checkpoint
/// before the first graph its own reference disagrees on.
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
