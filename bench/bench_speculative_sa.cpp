// Speculative parallel move evaluation inside one SA chain: wall-clock of
// the identical chain run sequentially vs. with 2 and 4 evaluation workers.
//
// The interesting regime is the low-acceptance phase (cold temperatures,
// where SA spends most of a long run): consecutive proposals perturb the
// same current solution, so a batch of K moves can be evaluated in
// parallel and replayed through the Metropolis decisions. The bench pins
// the chain into that phase with a cold schedule, measures the median
// wall-clock over repeats, and asserts the speculative results bit-equal
// the one-worker chain (solution, cost, acceptance count) — speed is the
// only thing allowed to change.
//
// Expect ~min(workers, 1/acceptance-rate)x minus sync overhead on idle
// cores; on a loaded or single-core machine the speedup degrades towards
// 1x (the engine never degrades correctness). hardware_concurrency is
// printed so cross-machine numbers read honestly.
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "core/initial_mapping.h"
#include "core/simulated_annealing.h"

namespace {

using namespace ides;

double medianMs(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1
             ? samples[mid]
             : 0.5 * (samples[mid - 1] + samples[mid]);
}

struct Timed {
  SaResult result;
  double medianMs = 0.0;
};

Timed timeChain(const SolutionEvaluator& evaluator,
                const MappingSolution& initial, const SaOptions& options,
                int repeats) {
  Timed timed;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    timed.result = runSimulatedAnnealing(evaluator, initial, options);
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  timed.medianMs = medianMs(samples);
  return timed;
}

}  // namespace

int main() {
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  const int iterations = scale.name == "smoke" ? 500
                         : scale.name == "full" ? 4000
                                                : 1500;
  const int repeats = scale.name == "smoke" ? 1 : 3;

  printHeader(
      "Speculative SA — parallel move evaluation inside one chain",
      "wall-clock of the identical chain: sequential vs 2 / 4 eval workers",
      scale);
  std::printf(
      "iterations per chain: %d (cold schedule: the low-acceptance phase)\n"
      "hardware concurrency: %u\n\n",
      iterations, std::thread::hardware_concurrency());

  CsvTable table({"current_processes", "seq_ms", "w2_ms", "w4_ms",
                  "speedup_w2", "speedup_w4", "accept_rate",
                  "evaluated_accept_rate", "zero_delta_skips",
                  "discarded_evals_w4", "mismatches"});
  BenchJson json("speculative_sa", scale.name);

  for (const std::size_t size : scale.sizes) {
    const Suite suite = buildSuite(paperConfig(size), 4000);
    const FrozenBase frozen = freezeExistingApplications(suite.system);
    if (!frozen.feasible) {
      std::printf("  [n=%zu] existing base infeasible, skipped\n", size);
      continue;
    }
    const SolutionEvaluator evaluator(suite.system, frozen.state,
                                      suite.profile, MetricWeights{});
    PlatformState state = frozen.state;
    const ScheduleOutcome im = initialMapping(suite.system, state);
    if (!im.feasible) {
      std::printf("  [n=%zu] no initial mapping, skipped\n", size);
      continue;
    }

    // The low-acceptance phase a long anneal ends in, pinned for the whole
    // run with a cold schedule — and the paper's default move mix. Hint
    // moves often land in the same gap, leaving the schedule exactly
    // unchanged; those zero-delta moves are always accepted and used to
    // floor the raw acceptance rate near 0.5 however cold the chain got
    // (which is why this bench once pinned a remap-heavy mix). The
    // gap-fingerprint filter now replays them without evaluating and keeps
    // them out of the speculation window, so the rate the threshold sees is
    // the evaluated acceptance rate — the floor is gone and the default mix
    // speculates; the accept_rate / evaluated_accept_rate columns show the
    // gap.
    SaOptions options;
    options.seed = 4000 + size;
    options.iterations = iterations;
    options.initialTempFactor = 1e-6;
    options.finalTemp = 1e-6;

    const Timed seq = timeChain(evaluator, im.mapping, options, repeats);

    options.speculation.workers = 2;
    const Timed w2 = timeChain(evaluator, im.mapping, options, repeats);
    options.speculation.workers = 4;
    const Timed w4 = timeChain(evaluator, im.mapping, options, repeats);

    std::size_t mismatches = 0;
    for (const Timed* t : {&w2, &w4}) {
      if (!(t->result.solution == seq.result.solution) ||
          t->result.eval.cost != seq.result.eval.cost ||
          t->result.accepted != seq.result.accepted ||
          t->result.evaluations != seq.result.evaluations ||
          t->result.proposals != seq.result.proposals ||
          t->result.zeroDeltaSkips != seq.result.zeroDeltaSkips) {
        ++mismatches;
      }
    }

    const double acceptRate =
        static_cast<double>(seq.result.accepted) /
        static_cast<double>(std::max<std::size_t>(1, seq.result.evaluations));
    // The acceptance floor the speculation threshold actually sees: the
    // zero-delta auto-accepts are filtered out of both sides, so this is
    // the rate among moves that needed a real evaluation.
    const double evaluatedAcceptRate =
        static_cast<double>(seq.result.accepted - seq.result.zeroDeltaSkips) /
        static_cast<double>(std::max<std::size_t>(
            1, seq.result.evaluations - seq.result.zeroDeltaSkips));
    const double speedup2 = w2.medianMs > 0.0 ? seq.medianMs / w2.medianMs
                                              : 0.0;
    const double speedup4 = w4.medianMs > 0.0 ? seq.medianMs / w4.medianMs
                                              : 0.0;
    table.addRow({CsvTable::num(static_cast<long long>(size)),
                  CsvTable::num(seq.medianMs, 1),
                  CsvTable::num(w2.medianMs, 1),
                  CsvTable::num(w4.medianMs, 1),
                  CsvTable::num(speedup2, 2), CsvTable::num(speedup4, 2),
                  CsvTable::num(acceptRate, 3),
                  CsvTable::num(evaluatedAcceptRate, 3),
                  CsvTable::num(
                      static_cast<long long>(seq.result.zeroDeltaSkips)),
                  CsvTable::num(
                      static_cast<long long>(w4.result.discardedEvaluations)),
                  CsvTable::num(static_cast<long long>(mismatches))});
    json.beginRecord()
        .field("instance", static_cast<long long>(size))
        .field("hardware_concurrency",
               static_cast<long long>(std::thread::hardware_concurrency()))
        .field("seq_median_ms", seq.medianMs)
        .field("w2_median_ms", w2.medianMs)
        .field("w4_median_ms", w4.medianMs)
        .field("speedup_w2", speedup2)
        .field("speedup_w4", speedup4)
        .field("proposals", static_cast<long long>(seq.result.proposals))
        .field("evaluations", static_cast<long long>(seq.result.evaluations))
        .field("accepted", static_cast<long long>(seq.result.accepted))
        .field("zero_delta_skips",
               static_cast<long long>(seq.result.zeroDeltaSkips))
        .field("accept_rate", acceptRate)
        .field("evaluated_accept_rate", evaluatedAcceptRate)
        .field("mismatches", static_cast<long long>(mismatches));
    std::printf(
        "  [n=%zu] seq=%.1fms w2=%.1fms w4=%.1fms -> %.2fx / %.2fx "
        "(accept %.3f, evaluated %.3f, %zu zero-delta skips, "
        "%zu speculations discarded, %zu mismatches)\n",
        size, seq.medianMs, w2.medianMs, w4.medianMs, speedup2, speedup4,
        acceptRate, evaluatedAcceptRate, seq.result.zeroDeltaSkips,
        w4.result.discardedEvaluations, mismatches);
  }

  std::printf("\n");
  printTableAndCsv(table);
  json.write();
  std::printf(
      "\nmismatches must be 0: the chain is bit-identical at every worker\n"
      "count (also enforced by core.SpeculativeSa tests).\n");
  return 0;
}
