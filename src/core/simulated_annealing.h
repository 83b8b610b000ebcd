// SA — simulated annealing over the same design transformations as MH.
//
// The paper uses SA, tuned long, as the near-optimal reference point for the
// objective C; its cost is the denominator of the "average percentage
// deviation" series in the evaluation. Moves: re-map a process to a random
// allowed node, push a process into a random slack (start-hint change), or
// push a message into a random bus slack (message-hint change). Standard
// Metropolis acceptance with a geometric cooling schedule; infeasible
// states are admitted at high penalty cost so the walk can cross narrow
// infeasible ridges, but only feasible states can become the incumbent.
//
// RNG stream-splitting contract: one chain consumes TWO deterministic
// streams derived from the seed (rngStreamSeed) —
//   * kSaProposalStream  — every draw that shapes a candidate move,
//   * kSaAcceptanceStream — the Metropolis draw for uphill moves.
// Splitting them makes the proposal sequence independent of the accept /
// reject outcomes. That is what lets the chain speculate: propose a batch
// of K moves against the same current solution, evaluate them on parallel
// workers (core/speculative_eval.h), and replay the acceptance decisions in
// chain order, rewinding the proposal stream after the first acceptance.
// The trajectory is a function of (options, evaluator, initial) only; the
// worker count changes the wall-clock, not the result.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "sched/mapping.h"
#include "util/rng.h"
#include "util/stop_token.h"

namespace ides {

/// Stream ids of one SA chain (see rngStreamSeed).
inline constexpr std::uint64_t kSaProposalStream = 0;
inline constexpr std::uint64_t kSaAcceptanceStream = 1;

/// Upper bound on every thread count an annealing run accepts
/// (SpeculationOptions::workers, ParallelSaOptions::threads and
/// speculativeWorkers). Results never depend on these counts, so the cap
/// only keeps one request from fanning out into thousands of threads.
inline constexpr int kMaxAnnealingThreads = 256;

/// Speculative execution inside one chain. Performance only: the chain
/// result is bit-identical for every worker count.
struct SpeculationOptions {
  /// Parallel evaluation workers for one chain; worker 0 is the calling
  /// thread, so `workers` is the total thread count, at most
  /// kMaxAnnealingThreads. <= 1 evaluates every move inline.
  int workers = 1;
};

struct SaOptions {
  std::uint64_t seed = 1;
  int iterations = 20000;
  /// Initial temperature as a fraction of the initial cost.
  double initialTempFactor = 0.3;
  /// Final temperature (cooling is geometric from T0 to this).
  double finalTemp = 0.05;
  /// Move mix.
  double probRemap = 0.5;        ///< move process to another node
  double probProcessHint = 0.35; ///< move process to another slack
  // remaining probability: move message to another bus slack

  /// Record the cost of the walk's current state after every iteration into
  /// SaResult::costTrace (the determinism suite diffs the trace against a
  /// plain reference chain at every worker count).
  bool recordCostTrace = false;

  /// Speculative parallel move evaluation inside this chain.
  SpeculationOptions speculation;

  /// Cooperative cancellation: polled once per proposal batch (once per
  /// iteration outside speculation). When it fires the chain stops, keeps
  /// its best incumbent so far and sets SaResult::stopped. Null = never
  /// stops early.
  /// The token does not perturb the trajectory while unfired, so two runs
  /// that both finish their budget are bit-identical with or without it.
  const StopToken* stop = nullptr;
};

/// Range-checks every knob; throws std::invalid_argument with a message
/// naming the offending field (e.g. negative iterations, probabilities
/// outside [0, 1] or summing past 1, more than kMaxAnnealingThreads
/// workers). Called on entry of runSimulatedAnnealing.
void validateOptions(const SaOptions& options);

struct SaResult {
  MappingSolution solution;  ///< best feasible solution seen
  EvalResult eval;
  /// Evaluations consumed by the chain (initial + one per non-None
  /// iteration), identical at every worker count. Proposals the zero-delta
  /// filter replayed without computing are still counted here (their result
  /// is known exactly), so the counter matches a chain without the filter.
  std::size_t evaluations = 0;
  std::size_t accepted = 0;
  /// Move-generation telemetry: proposals consumed by the chain (None
  /// moves included; speculative proposals rewound after an acceptance are
  /// not — they are re-drawn by the next batch) and the subset the
  /// gap-fingerprint filter proved schedule-identical and replayed without
  /// any evaluation. Both are pure functions of the trajectory, identical
  /// at every worker count.
  std::size_t proposals = 0;
  std::size_t zeroDeltaSkips = 0;
  /// Speculative telemetry: evaluations computed ahead of an acceptance and
  /// then thrown away, and the number of speculation batches dispatched.
  /// Always 0 at one worker.
  std::size_t discardedEvaluations = 0;
  std::size_t speculativeBatches = 0;
  /// True when SaOptions::stop ended the chain before its iteration budget.
  bool stopped = false;
  /// Current-state cost after every iteration (only when
  /// SaOptions::recordCostTrace).
  std::vector<double> costTrace;
};

/// One candidate design transformation, pre-drawn from the proposal stream
/// and applied to a solution later (a speculation batch materializes all
/// of its moves before any evaluation runs).
struct SaMove {
  enum class Kind : std::uint8_t {
    None,         ///< skipped iteration (message move with no messages)
    Remap,        ///< process -> another allowed node, hint reset to ASAP
    ProcessHint,  ///< process -> another slack (new start hint)
    MessageHint,  ///< message -> another bus slack (new message hint)
  };
  Kind kind = Kind::None;
  ProcessId process;
  MessageId message;
  NodeId node;    ///< Remap target
  Time hint = 0;  ///< ProcessHint / MessageHint value
  MoveHint evalHint;
};

/// The move kernel of the chain (and of tabu search): given the walk's
/// current solution and the proposal stream, draws the next candidate
/// move.
class SaMoveProposer {
 public:
  /// Collects the movable processes / messages of the evaluator's current
  /// graphs. Throws std::invalid_argument when there is nothing to move.
  SaMoveProposer(const SolutionEvaluator& evaluator, const SaOptions& options);

  /// Draws the next move. Consumption of `proposalRng` depends only on the
  /// move mix and `current` — never on evaluation results.
  [[nodiscard]] SaMove propose(const MappingSolution& current,
                               Rng& proposalRng) const;

  /// Applies a drawn move to a solution.
  static void apply(const SaMove& move, MappingSolution& solution);

 private:
  const SystemModel* sys_;
  double probRemap_;
  double probProcessHint_;
  std::vector<ProcessId> procs_;
  std::vector<MessageId> msgs_;
  /// Flat per-process allowed-node lists (same draws as
  /// Process::allowedNodes, no per-proposal allocation).
  std::vector<NodeId> allowed_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>
      allowedSpan_;  // by ProcessId::index(): [begin, count)
};

/// Gap-fingerprint zero-delta filter — detects hint moves that provably
/// reproduce the current schedule and lets the chain replay them without
/// any evaluation (performance only; the trajectory is untouched).
///
/// The fingerprint is a snapshot of two hint-independent quantities of the
/// chain's current schedule, indexed by SolutionEvaluator::jobIndexOf:
/// the arrival bound of every job (earliest start permitted by release
/// time and input-message arrivals alone) and its committed end. Captured
/// from whichever EvalContext just evaluated an accepted feasible
/// solution; rejections leave the current schedule — and the snapshot —
/// untouched, and a skipped move keeps it valid by construction.
///
/// A proposal is zero-delta when the scheduler provably never reads the
/// changed hint:
///  * ProcessHint h -> h': start = earliestFit(max(arrival, k*P + hint));
///    if k*P + max(h, h') <= arrival(p, k) for every instance k, the hint
///    stays shadowed by the arrival bound and every start is unchanged.
///  * MessageHint: read only for cross-node transmissions, as
///    ready = max(srcEnd, k*P + hint); same-node messages are always
///    zero-delta, cross-node ones when k*P + max(old, new) <= srcEnd(k)
///    for every instance.
/// Remaps are never skipped. A zero-delta proposal evaluates to exactly
/// the current cost, so delta == 0, Metropolis accepts without touching
/// the acceptance stream, and the incumbent cannot improve — the replay
/// is draw-for-draw and bit-for-bit the evaluated path.
class ZeroDeltaFilter {
 public:
  explicit ZeroDeltaFilter(const SolutionEvaluator& evaluator);

  [[nodiscard]] bool valid() const { return valid_; }
  void invalidate() { valid_ = false; }

  /// Re-arm from the context that just evaluated the accepted solution:
  /// snapshots when the result is feasible, invalidates otherwise.
  void captureAccepted(const EvalContext& ctx, const EvalResult& result);

  /// Re-arm from a pre-copied fingerprint (a speculation batch snapshots
  /// each feasible item on its worker, since a worker's context may have
  /// moved past the accepted item by replay time).
  void capture(const std::vector<Time>& arrivals,
               const std::vector<Time>& ends);

  /// True when applying `move` to `current` provably leaves the schedule
  /// bit-identical. Requires nothing when invalid (returns false).
  [[nodiscard]] bool zeroDelta(const SaMove& move,
                               const MappingSolution& current) const;

 private:
  const SolutionEvaluator* ev_;
  const SystemModel* sys_;
  bool valid_ = false;
  std::vector<Time> arrivals_;  ///< by global job index
  std::vector<Time> ends_;      ///< by global job index
  std::vector<Time> period_;    ///< by ProcessId::index(); movable only
  std::vector<std::int32_t> instances_;  ///< by ProcessId::index()
};

/// Geometric cooling schedule of one chain.
struct SaSchedule {
  double t0 = 1.0;
  double alpha = 1.0;
};
[[nodiscard]] SaSchedule saSchedule(const SaOptions& options,
                                    double initialCost);

/// The Metropolis criterion. The acceptance stream is consumed only for
/// uphill moves (delta > 0), so the draw pattern is a pure function of the
/// decision sequence.
[[nodiscard]] inline bool metropolisAccept(double delta, double temp,
                                           Rng& acceptanceRng) {
  return delta <= 0.0 ||
         acceptanceRng.uniform01() < std::exp(-delta / std::max(temp, 1e-12));
}

/// Requires `initial` to be feasible; throws otherwise. With
/// options.speculation.workers > 1, batches of moves are evaluated in
/// parallel while the windowed acceptance rate is low (bit-identical
/// result).
///
/// `scratch`, when given, is a caller-owned EvalContext bound to the same
/// evaluator (e.g. a RunContext's evaluation context) that worker 0 uses
/// instead of constructing its own — a pure reuse optimization; results
/// are bit-identical either way.
SaResult runSimulatedAnnealing(const SolutionEvaluator& evaluator,
                               const MappingSolution& initial,
                               const SaOptions& options = {},
                               EvalContext* scratch = nullptr);

}  // namespace ides
