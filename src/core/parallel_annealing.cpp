#include "core/parallel_annealing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace ides {

namespace {

// Initial-temperature multipliers for chains 1..K-1 (chain 0 keeps the base
// schedule verbatim). Colder starts behave like iterated descent — the
// right regime when the per-chain budget is short — while hotter starts
// keep one escape hatch across infeasible ridges.
constexpr double kTempLadder[] = {0.25, 0.5, 2.0, 0.1, 1.5, 0.75, 4.0};

SaOptions chainOptionsFor(const SaOptions& base, int index) {
  SaOptions opts = base;
  opts.seed = parallelSaChainSeed(base.seed, index);
  if (index > 0) {
    constexpr int ladder =
        static_cast<int>(sizeof(kTempLadder) / sizeof(kTempLadder[0]));
    opts.initialTempFactor *= kTempLadder[(index - 1) % ladder];
  }
  return opts;
}

}  // namespace

void validateOptions(const ParallelSaOptions& options) {
  const auto check = [](const char* field, int value, int min,
                        int max = std::numeric_limits<int>::max()) {
    if (value < min || value > max) {
      const bool low = value < min;
      throw std::invalid_argument(
          std::string("ParallelSaOptions: ") + field +
          (low ? " must be >= " : " must be <= ") +
          std::to_string(low ? min : max) + " (got " +
          std::to_string(value) + ")");
    }
  };
  check("restarts", options.restarts, 1);
  check("threads", options.threads, 0,  // 0 = hardware concurrency
        kMaxAnnealingThreads);
  check("perChainIterations", options.perChainIterations, 0);
  check("speculativeWorkers", options.speculativeWorkers, 0,
        kMaxAnnealingThreads);
  validateOptions(options.base);
}

std::uint64_t parallelSaChainSeed(std::uint64_t baseSeed, int index) {
  // The splitmix64 finalizer decorrelates consecutive chain indices so
  // adjacent chains do not start mt19937_64 from near-identical states.
  if (index == 0) return baseSeed;
  return splitmix64(baseSeed + static_cast<std::uint64_t>(index));
}

ParallelSaResult runParallelAnnealing(const SolutionEvaluator& evaluator,
                                      const MappingSolution& initial,
                                      const ParallelSaOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  validateOptions(options);
  const int chains = options.restarts;

  SaOptions chainOptions = options.base;
  if (options.perChainIterations > 0) {
    chainOptions.iterations = options.perChainIterations;
  }

  unsigned threadBudget =
      options.threads > 0 ? static_cast<unsigned>(options.threads)
                          : std::thread::hardware_concurrency();
  if (threadBudget == 0) threadBudget = 1;
  const unsigned workers =
      std::min<unsigned>(threadBudget, static_cast<unsigned>(chains));

  // Two-level split of the thread budget: `workers` chain threads, and the
  // leftover capacity as per-chain speculative evaluation workers (worker 0
  // of each chain is the chain thread itself, so a chain with S workers
  // costs S threads total). Speculation does not change any chain's
  // trajectory, so this split affects wall-clock only.
  if (options.speculativeWorkers > 0) {
    chainOptions.speculation.workers = options.speculativeWorkers;
  } else {
    chainOptions.speculation.workers =
        static_cast<int>(std::max(1u, threadBudget / std::max(1u, workers)));
  }

  // Fail fast (and on the caller's thread) on an infeasible start instead
  // of throwing inside every worker.
  if (!evaluator.evaluate(initial).feasible) {
    throw std::invalid_argument("runParallelAnnealing: initial not feasible");
  }

  // Chain i writes only results[i] / errors[i]; the atomic counter hands
  // out chain indices, so no two workers touch the same slot.
  std::vector<SaResult> results(static_cast<std::size_t>(chains));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chains));
  std::atomic<int> next{0};

  auto worker = [&]() {
    for (int i = next.fetch_add(1, std::memory_order_relaxed); i < chains;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      const SaOptions opts = chainOptionsFor(chainOptions, i);
      try {
        results[static_cast<std::size_t>(i)] =
            runSimulatedAnnealing(evaluator, initial, opts);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    } catch (...) {
      // A thread failed to start: hand out no further chains, let the
      // started threads finish the chain they hold, then report the
      // failure instead of destroying joinable threads.
      next.store(chains, std::memory_order_relaxed);
      for (std::thread& t : pool) t.join();
      throw;
    }
    for (std::thread& t : pool) t.join();
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  ParallelSaResult out;
  out.chainCosts.reserve(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    const SaResult& r = results[static_cast<std::size_t>(i)];
    out.evaluations += r.evaluations;
    out.accepted += r.accepted;
    out.proposals += r.proposals;
    out.zeroDeltaSkips += r.zeroDeltaSkips;
    out.stopped = out.stopped || r.stopped;
    out.chainCosts.push_back(r.eval.cost);
    // Every chain's incumbent is feasible (SA only promotes feasible
    // states); strict < keeps ties on the lowest chain index.
    if (out.bestChain < 0 || r.eval.cost < out.eval.cost) {
      out.bestChain = i;
      out.eval = r.eval;
    }
  }
  out.solution = results[static_cast<std::size_t>(out.bestChain)].solution;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace ides
