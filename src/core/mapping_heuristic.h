// MH — the paper's iterative-improvement mapping heuristic (slide 14).
//
// Starting from a valid solution (IM), MH repeatedly applies the design
// transformation with the best effect on the objective C, examining only
// the transformations with the highest potential to improve the design:
//
//   * moving a process into a different slack, on the same or on a
//     different processor (node re-assignment and/or start-hint change);
//   * moving a message into a different slack on the bus (hint change).
//
// Potential analysis: the processes bordering the smallest slack fragments
// (they cause C1 fragmentation) and the processes executing inside the
// worst Tmin window of the most loaded node (they depress C2) are the move
// candidates; target slacks are the largest free gaps per node and the
// emptiest bus rounds. The iteration stops at a local minimum of C or after
// `maxIterations` rounds.
//
// Cost: the analysis reads the EvalContext's commit-order log and a slack
// snapshot of the incumbent, both left by re-reading the accepted move
// (no schedule is rebuilt), and scores into dense per-run arrays: each
// node's entries sorted once per round, one forward walk over its gaps,
// and top-k picks of processes and messages. Trials reuse one scratch
// solution. On the design benchmark's MH jobs (10 nodes, 400 existing
// processes, 160 and 320 current; phase timers on a 4-core VM) analysis
// plus refresh is 2–9% of a job (median 4.5%); nearly all the rest is
// trial evaluations.
#pragma once

#include <cstddef>

#include "core/evaluator.h"
#include "sched/mapping.h"
#include "util/stop_token.h"

namespace ides {

struct MhOptions {
  /// Upper bound on improvement rounds (one applied move per round, with
  /// first-improvement acceptance). MH normally stops earlier, at a local
  /// minimum of C.
  int maxIterations = 2048;
  /// How many highest-potential processes to examine per iteration.
  int candidateProcesses = 5;
  /// How many target nodes to consider per candidate (ranked by per-node
  /// minimum-window slack, i.e. where periodic capacity is most plentiful);
  /// the process's current node is always included.
  int targetNodes = 3;
  /// How many target gaps per target node to try for each candidate.
  int gapsPerNode = 2;
  /// How many messages to examine per iteration.
  int candidateMessages = 3;
  /// How many target bus windows to try per candidate message.
  int busWindows = 2;
  /// Hard cap on schedule evaluations (0 = unlimited). Used by budgeted
  /// comparisons; normal runs stop at the local minimum instead.
  std::size_t maxEvaluations = 0;
  /// Cooperative cancellation, polled once per improvement round. When it
  /// fires MH stops at the current (always valid) incumbent and sets
  /// MhResult::stopped. Null = run to the local minimum.
  const StopToken* stop = nullptr;
};

/// Range-checks every knob; throws std::invalid_argument naming the
/// offending field (negative iteration/candidate budgets). Called on entry
/// of runMappingHeuristic.
void validateOptions(const MhOptions& options);

struct MhResult {
  MappingSolution solution;
  EvalResult eval;
  std::size_t evaluations = 0;  ///< schedule evaluations performed
  int iterations = 0;           ///< improvement rounds executed
  /// True when MhOptions::stop ended the search before a local minimum.
  bool stopped = false;
};

/// Requires `initial` to be feasible (as produced by IM); throws otherwise.
/// `scratch`, when given, is a caller-owned EvalContext bound to the same
/// evaluator that MH uses instead of constructing its own (pure reuse;
/// results are bit-identical either way).
MhResult runMappingHeuristic(const SolutionEvaluator& evaluator,
                             const MappingSolution& initial,
                             const MhOptions& options = {},
                             EvalContext* scratch = nullptr);

}  // namespace ides
