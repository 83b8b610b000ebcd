// Parallel multi-start simulated annealing.
//
// Runs K independent SA chains with distinct, deterministically derived
// seeds on a fixed-size std::thread pool and keeps the best feasible
// incumbent across chains. Chains 1..K-1 additionally diversify the
// cooling schedule (colder and hotter starts around the base temperature),
// hedging against a mistuned schedule on short per-chain budgets.
// The shared SolutionEvaluator is const; every chain owns its private
// EvalContext (the delta-aware per-thread evaluation scratch), so the
// chains re-schedule only what their moves touch without any sharing.
//
// Determinism: chain i's seed depends only on (options.base.seed, i), and
// chains never exchange state, so the result is bit-identical for any
// thread count. Chain 0 reuses base.seed verbatim, which makes the K-chain
// result provably no worse than a single chain run with the same options.
//
// Two-level parallelism: when the chain count cannot saturate the thread
// budget, the leftover threads become per-chain speculative evaluation
// workers (core/speculative_eval.h) — chains across the pool, speculative
// move evaluations within each chain. A chain's result does not depend on
// its worker count, so the PSA result stays independent of the thread
// budget and of how it is split. Thread counts are capped at
// kMaxAnnealingThreads.
#pragma once

#include <cstdint>
#include <vector>

#include "core/simulated_annealing.h"

namespace ides {

struct ParallelSaOptions {
  /// Per-chain SA configuration; `base.seed` seeds the whole ensemble and
  /// `base.iterations` is the per-chain default.
  SaOptions base;
  /// Worker threads; 0 means std::thread::hardware_concurrency(). At most
  /// kMaxAnnealingThreads.
  int threads = 0;
  /// Number of independent chains (K). Must be >= 1.
  int restarts = 4;
  /// Iterations per chain; 0 means base.iterations.
  int perChainIterations = 0;
  /// Speculative evaluation workers per chain
  /// (SpeculationOptions::workers for every chain). 0 = auto: divide the
  /// thread budget evenly over the chains that run concurrently, so e.g. 2
  /// chains on 8 threads each get 4 workers. 1 = speculation off; at most
  /// kMaxAnnealingThreads. Results are identical for every value — this
  /// splits the thread budget, not the search.
  int speculativeWorkers = 0;
};

/// Range-checks every knob (restarts >= 1, non-negative iteration budgets,
/// thread counts in [0, kMaxAnnealingThreads]) including the embedded base
/// SaOptions; throws std::invalid_argument naming the offending field.
/// Called on entry of runParallelAnnealing.
void validateOptions(const ParallelSaOptions& options);

/// Seed of chain `index` for a given ensemble seed: chain 0 keeps the base
/// seed, later chains get splitmix64-scrambled derivatives.
std::uint64_t parallelSaChainSeed(std::uint64_t baseSeed, int index);

struct ParallelSaResult {
  /// Best feasible incumbent across all chains (ties break toward the
  /// lowest chain index, keeping selection deterministic).
  MappingSolution solution;
  EvalResult eval;
  /// Index of the winning chain.
  int bestChain = -1;
  /// Final incumbent cost of every chain, in chain order.
  std::vector<double> chainCosts;
  /// Evaluation / move-generation counters summed over all chains (see
  /// SaResult for the per-chain semantics).
  std::size_t evaluations = 0;
  std::size_t accepted = 0;
  std::size_t proposals = 0;
  std::size_t zeroDeltaSkips = 0;
  /// Wall-clock time of the whole ensemble, in seconds.
  double seconds = 0.0;
  /// True when base.stop cancelled at least one chain before its budget
  /// (the incumbent is still the best feasible solution seen so far).
  bool stopped = false;
};

/// Requires `initial` to be feasible (same contract as
/// runSimulatedAnnealing); throws std::invalid_argument otherwise or when
/// options.restarts < 1. If a thread fails to start, the threads already
/// started finish their current chain and are joined before the
/// std::system_error propagates.
ParallelSaResult runParallelAnnealing(const SolutionEvaluator& evaluator,
                                      const MappingSolution& initial,
                                      const ParallelSaOptions& options = {});

}  // namespace ides
