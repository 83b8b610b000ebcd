// Tabu search over the same design transformations as SA.
//
// A best-improvement local search with short-term memory: every iteration
// draws a batch of candidate moves from the shared SaMoveProposer kernel,
// evaluates each against the current state, and commits the best admissible
// one — admissible meaning not tabu, or tabu but better than the incumbent
// (aspiration). The tabu list is recency-keyed on the reversed attribute:
// re-mapping a process back to a node it recently left, or re-touching a
// recently moved start/message hint, is forbidden for `tenure` iterations.
// Unlike SA there is no acceptance stream — the walk always moves, relying
// on the memory to escape local minima — so one proposal RNG stream fully
// determines the trajectory.
//
// Determinism: the result is a pure function of (evaluator, initial,
// options); an unfired stop token leaves the trajectory untouched.
#pragma once

#include <cstdint>

#include "core/evaluator.h"
#include "sched/mapping.h"
#include "util/stop_token.h"

namespace ides {

struct TabuOptions {
  std::uint64_t seed = 1;
  int iterations = 5000;
  /// Candidate moves drawn per iteration (None draws are skipped, not
  /// re-drawn, so the proposal stream stays aligned with the draw count).
  int candidates = 8;
  /// Iterations a reversed move attribute stays tabu.
  int tenure = 32;
  /// Move mix, as in SaOptions (remainder: message-hint moves).
  double probRemap = 0.5;
  double probProcessHint = 0.35;
  /// Polled once per iteration; a fired token keeps the incumbent and sets
  /// TabuResult::stopped.
  const StopToken* stop = nullptr;
};

/// Range-checks every knob; throws std::invalid_argument naming the
/// offending field.
void validateOptions(const TabuOptions& options);

struct TabuResult {
  MappingSolution solution;  ///< best feasible solution seen
  EvalResult eval;
  /// Initial evaluation plus one per evaluated candidate.
  std::size_t evaluations = 0;
  /// Iterations that committed a move (== iterations run: tabu search
  /// always moves).
  std::size_t accepted = 0;
  /// Proposals drawn from the kernel, None draws included.
  std::size_t proposals = 0;
  /// True when TabuOptions::stop ended the search before its budget.
  bool stopped = false;
};

/// Requires `initial` to be feasible; throws std::invalid_argument
/// otherwise. `scratch`, when given, is a caller-owned EvalContext bound to
/// the same evaluator used instead of constructing one (pure reuse, same
/// contract as runSimulatedAnnealing).
TabuResult runTabuSearch(const SolutionEvaluator& evaluator,
                         const MappingSolution& initial,
                         const TabuOptions& options = {},
                         EvalContext* scratch = nullptr);

}  // namespace ides
