// Parallel multi-start SA: quality and wall-clock versus a single chain.
//
// Three modes on the same instance and IM start, K = 4 chains:
//   single    — one SA chain of N iterations (the paper's reference)
//   eq_budget — K chains of N/K iterations: equal total evaluations.
//               Multi-start diversification under a fixed budget; ties or
//               wins on small/medium instances, can lose to the slow
//               cooling of one long chain on the largest ones.
//   eq_time   — K chains of N iterations each on P threads: with P >= K
//               cores this costs the wall-clock of `single` but is
//               guaranteed no worse (chain 0 replays the single chain and
//               selection keeps the best feasible incumbent).
// The ensemble is deterministic for any thread count, so the speedup
// column (same eq_budget ensemble on 1 thread vs P threads) is a pure
// wall-clock measurement; it needs P >= 4 physical cores to show.
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "core/parallel_annealing.h"
#include "util/stats.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace ides;
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  const int restarts = 4;
  const int threads =
      std::max(4u, std::thread::hardware_concurrency());
  printHeader("Parallel SA — best-of-K quality and thread-pool speedup",
              "single chain of N vs K chains at equal budget / equal time",
              scale);
  std::printf("restarts K=%d, threads P=%d (hardware: %u)\n\n", restarts,
              threads, std::thread::hardware_concurrency());

  CsvTable table({"current_processes", "single_C", "eq_budget_C", "eq_time_C",
                  "eq_time_wins", "single_seconds", "eq_budget_1t_seconds",
                  "eq_budget_Pt_seconds", "eq_time_Pt_seconds", "speedup"});

  for (const std::size_t size : scale.sizes) {
    StatAccumulator singleC, budgetC, timeC;
    StatAccumulator tSingle, tBudget1, tBudgetP, tTimeP;
    int wins = 0;
    for (int s = 0; s < scale.seeds; ++s) {
      const Suite suite =
          buildSuite(paperConfig(size), 3000 + static_cast<std::uint64_t>(s));
      DesignerOptions opts = designerOptions(scale, 1);
      IncrementalDesigner designer(suite.system, suite.profile, opts);
      const MappingSolution im =
          designer.run("AH").mapping;  // shared IM start

      auto t0 = std::chrono::steady_clock::now();
      const SaResult one =
          runSimulatedAnnealing(designer.evaluator(), im, opts.sa);
      tSingle.add(seconds_since(t0));
      singleC.add(one.eval.cost);

      ParallelSaOptions par;
      par.base = opts.sa;
      par.restarts = restarts;
      par.perChainIterations = std::max(1, opts.sa.iterations / restarts);
      par.threads = 1;
      const ParallelSaResult seq =
          runParallelAnnealing(designer.evaluator(), im, par);
      tBudget1.add(seq.seconds);
      par.threads = threads;
      const ParallelSaResult pool =
          runParallelAnnealing(designer.evaluator(), im, par);
      tBudgetP.add(pool.seconds);
      budgetC.add(pool.eval.cost);

      par.perChainIterations = 0;  // full N per chain
      const ParallelSaResult wide =
          runParallelAnnealing(designer.evaluator(), im, par);
      tTimeP.add(wide.seconds);
      timeC.add(wide.eval.cost);
      if (wide.eval.cost <= one.eval.cost + 1e-9) ++wins;
    }
    const double speedup =
        tBudgetP.mean() > 0.0 ? tBudget1.mean() / tBudgetP.mean() : 0.0;
    table.addRow({CsvTable::num(static_cast<long long>(size)),
                  CsvTable::num(singleC.mean(), 2),
                  CsvTable::num(budgetC.mean(), 2),
                  CsvTable::num(timeC.mean(), 2),
                  CsvTable::num(static_cast<long long>(wins)),
                  CsvTable::num(tSingle.mean(), 3),
                  CsvTable::num(tBudget1.mean(), 3),
                  CsvTable::num(tBudgetP.mean(), 3),
                  CsvTable::num(tTimeP.mean(), 3),
                  CsvTable::num(speedup, 2)});
    std::printf(
        "  [n=%zu] C: single=%.2f eq_budget=%.2f eq_time=%.2f "
        "(eq_time wins %d/%d)  wall: single=%.3fs ensemble 1t=%.3fs "
        "%dt=%.3fs (%.2fx)\n",
        size, singleC.mean(), budgetC.mean(), timeC.mean(), wins,
        scale.seeds, tSingle.mean(), tBudget1.mean(), threads,
        tBudgetP.mean(), speedup);
  }

  std::printf("\n");
  printTableAndCsv(table);
  std::printf(
      "\neq_time is the recommended production mode: with P >= K cores it\n"
      "matches the single chain's wall-clock and is never worse on cost\n"
      "(chain 0 replays the single chain; best feasible incumbent wins).\n");
  return 0;
}
