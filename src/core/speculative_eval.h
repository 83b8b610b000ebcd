// Parallel move evaluation inside ONE simulated-annealing chain.
//
// PSA (core/parallel_annealing.h) parallelizes across chains; this pool
// parallelizes within a chain. At low temperatures most proposals are
// rejected, so consecutive iterations perturb the same current solution and
// their evaluations are independent. runSimulatedAnnealing
// (core/simulated_annealing.h) proposes a batch of K such moves, this pool
// evaluates them concurrently on per-worker EvalContexts, and the chain
// replays the Metropolis decisions in order. After an acceptance the
// worker contexts hold stale speculations; each re-aligns on its next
// evaluation — the EvalContext diffs the trial against its own reference
// and walks from the first job they disagree on — so the catch-up overlaps
// the next batch's useful work instead of costing a dedicated barrier
// round.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "sched/mapping.h"

namespace ides {

/// Persistent fork-join pool of evaluation workers for one chain. Worker 0
/// is the calling thread; workers 1..W-1 are std::threads parked on a
/// condition variable between batches. Each worker owns one EvalContext;
/// worker 0 may borrow a caller-owned one instead.
class SpeculativeEvalPool {
 public:
  struct Item {
    const MappingSolution* trial = nullptr;  ///< null = skip (no evaluation)
    MoveHint hint;
    EvalResult result;
    /// Gap-fingerprint of the evaluated schedule (filled for feasible
    /// results): hint-independent arrival bound and committed end per job,
    /// in global job-index order. The chain's ZeroDeltaFilter re-arms from
    /// the accepted item — a worker's context may already hold a later
    /// speculation by replay time, so the snapshot is taken on the worker,
    /// right after the evaluation.
    std::vector<Time> arrivals;
    std::vector<Time> ends;
  };

  /// Starts `workers - 1` threads. `context0`, when given, is a caller-owned
  /// EvalContext bound to `evaluator` that worker 0 uses instead of its own.
  /// If a thread fails to start, the threads already started are stopped
  /// and joined before the std::system_error propagates.
  SpeculativeEvalPool(const SolutionEvaluator& evaluator, int workers,
                      EvalContext* context0 = nullptr);
  ~SpeculativeEvalPool();

  SpeculativeEvalPool(const SpeculativeEvalPool&) = delete;
  SpeculativeEvalPool& operator=(const SpeculativeEvalPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Worker 0's context, free for the calling thread between batches.
  [[nodiscard]] EvalContext& context0() { return *contexts_[0]; }

  /// Evaluates every non-null item, item i on worker i % workers. Results
  /// are bit-identical to a full pass no matter which worker ran them (the
  /// EvalContext property), so the static assignment is load balancing
  /// only. Blocks until the whole batch is done; rethrows the first worker
  /// exception.
  void evaluate(Item* items, std::size_t count);

 private:
  void workerLoop(int w);
  void runShare(int w);
  void stopWorkers();

  int workers_;
  EvalContextPool owned_;
  std::vector<EvalContext*> contexts_;      // by worker
  std::vector<std::exception_ptr> errors_;  // by worker

  std::mutex mutex_;  // guards the dispatch state below
  std::condition_variable start_;
  std::condition_variable done_;
  std::uint64_t epoch_ = 0;  // bumped per dispatch; workers wait on it
  int running_ = 0;
  bool stopping_ = false;
  // Current batch (stable for the whole epoch).
  Item* items_ = nullptr;
  std::size_t itemCount_ = 0;

  // Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace ides
