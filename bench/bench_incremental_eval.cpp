// Incremental vs full-pass evaluation: the cost of one SA/MH inner-loop
// step.
//
// For each instance size, replays the same sequence of random
// single-process moves (node re-map or start-hint change, SA's move mix)
// through both evaluation paths:
//   full — SolutionEvaluator::evaluate: copy the baseline platform state
//          and re-list-schedule every current graph;
//   inc  — EvalContext::evaluate(solution, MoveHint): walk the commit order
//          from the first job the move touches, keep every job whose
//          placement inputs did not change and re-place the rest.
// Costs are asserted bit-identical move by move; the table reports the
// median per-evaluation wall time of each path, the speedup, and the share
// of the jobs the walks visited that they had to re-place.
//
// A second series splits the incremental pass by where the walk started,
// using the context's telemetry (lastRestartGraph / lastRestartPosition /
// zeroDeltaServes):
//   zero-delta  — the trial was exactly the context's reference and the
//                 cached result was served (no walk, no metrics);
//   mid-graph   — the walk started inside a graph's commit order;
//   graph-start — the walk started at a graph's first job.
//
// Sizes: the scale's axis plus 640 current processes at default and full
// scale (1280 has no feasible suite on this generator).
#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "bench_common.h"
#include "core/initial_mapping.h"
#include "util/rng.h"

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

struct MoveSequence {
  std::vector<MappingSolution> trials;
  std::vector<MoveHint> hints;
};

/// SA-style walk of single-process moves, recorded so both evaluation paths
/// replay the identical sequence. Feasible moves are accepted, infeasible
/// ones rejected (decided with an untimed evaluation) — the walk stays in
/// the region SA actually explores, and the occasional rejection lets the
/// context's reference drift from the accepted solution.
MoveSequence makeMoves(const SolutionEvaluator& evaluator,
                       const MappingSolution& initial, int count,
                       std::uint64_t seed) {
  const SystemModel& sys = evaluator.system();
  Rng rng(seed);
  std::vector<ProcessId> procs;
  for (GraphId g : evaluator.currentGraphs()) {
    const ProcessGraph& graph = sys.graph(g);
    procs.insert(procs.end(), graph.processes.begin(),
                 graph.processes.end());
  }

  EvalContext decide(evaluator);
  MoveSequence seq;
  seq.trials.reserve(static_cast<std::size_t>(count));
  seq.hints.reserve(static_cast<std::size_t>(count));
  MappingSolution current = initial;
  for (int i = 0; i < count; ++i) {
    MappingSolution trial = current;
    const ProcessId p = rng.pick(procs);
    const Process& proc = sys.process(p);
    if (rng.chance(0.5)) {
      const auto allowed = proc.allowedNodes();
      trial.setNode(p, allowed[rng.index(allowed.size())]);
      trial.setStartHint(p, 0);
    } else {
      const ProcessGraph& graph = sys.graph(proc.graph);
      const Time maxHint =
          std::max<Time>(0, graph.deadline - proc.wcetOn(trial.nodeOf(p)));
      trial.setStartHint(p, maxHint > 0 ? rng.uniformInt(0, maxHint) : 0);
    }
    MoveHint hint;
    hint.graph = proc.graph;
    hint.process = p;
    seq.trials.push_back(trial);
    seq.hints.push_back(hint);
    if (decide.evaluate(trial, hint).feasible) current = std::move(trial);
  }
  return seq;
}

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  const int moves = scale.name == "smoke" ? 150
                    : scale.name == "full" ? 800
                                           : 400;
  printHeader(
      "Incremental evaluation — change propagation over the reference "
      "schedule",
      "median cost of one optimization step: full re-schedule vs walk",
      scale);
  std::printf("moves per instance: %d (single-process re-map / start-hint)\n\n",
              moves);

  CsvTable table({"current_processes", "current_graphs", "full_median_ms",
                  "inc_median_ms", "speedup", "jobs_replaced_pct",
                  "mismatches"});
  BenchJson json("incremental_eval", scale.name);

  std::vector<std::size_t> sizes = scale.sizes;
  if (scale.name != "smoke") sizes.push_back(640);
  for (const std::size_t size : sizes) {
    std::optional<Suite> built;
    try {
      built.emplace(buildSuite(paperConfig(size), 4000));
    } catch (const std::runtime_error& e) {
      std::printf("  [n=%zu] %s, skipped\n", size, e.what());
      continue;
    }
    const Suite& suite = *built;
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

    const MoveSequence seq =
        makeMoves(evaluator, im.mapping, moves, 77 + size);

    // Pass 1: stateless full evaluations.
    std::vector<double> fullMs;
    std::vector<double> fullCosts;
    fullMs.reserve(seq.trials.size());
    fullCosts.reserve(seq.trials.size());
    for (const MappingSolution& trial : seq.trials) {
      const auto t0 = std::chrono::steady_clock::now();
      const EvalResult r = evaluator.evaluate(trial);
      fullMs.push_back(msSince(t0));
      fullCosts.push_back(r.cost);
    }

    // Pass 2: the walk replaying the identical sequence, each move
    // classified by where the walk started.
    EvalContext ctx(evaluator);
    ctx.evaluate(im.mapping);  // prime the reference, like SA does
    const std::size_t visitedBefore = ctx.jobsVisited();
    const std::size_t replacedBefore = ctx.jobsReplaced();
    std::vector<double> incMs;
    std::vector<double> zeroDeltaMs;
    std::vector<double> midGraphMs;
    std::vector<double> graphStartMs;
    incMs.reserve(seq.trials.size());
    std::size_t mismatches = 0;
    std::size_t serves = ctx.zeroDeltaServes();
    for (std::size_t i = 0; i < seq.trials.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const EvalResult r = ctx.evaluate(seq.trials[i], seq.hints[i]);
      const double ms = msSince(t0);
      incMs.push_back(ms);
      if (ctx.zeroDeltaServes() != serves) {
        serves = ctx.zeroDeltaServes();
        zeroDeltaMs.push_back(ms);
      } else if (ctx.lastRestartPosition() > 0) {
        midGraphMs.push_back(ms);
      } else {
        graphStartMs.push_back(ms);
      }
      if (r.cost != fullCosts[i]) ++mismatches;
    }

    const std::size_t graphCount = evaluator.currentGraphs().size();
    const double fullMed = medianMs(fullMs);
    const double incMed = medianMs(incMs);
    const double speedup = incMed > 0.0 ? fullMed / incMed : 0.0;
    const std::size_t visited = ctx.jobsVisited() - visitedBefore;
    const double replacedPct =
        visited > 0 ? 100.0 *
                          static_cast<double>(ctx.jobsReplaced() -
                                              replacedBefore) /
                          static_cast<double>(visited)
                    : 0.0;
    table.addRow({CsvTable::num(static_cast<long long>(size)),
                  CsvTable::num(static_cast<long long>(graphCount)),
                  CsvTable::num(fullMed, 4), CsvTable::num(incMed, 4),
                  CsvTable::num(speedup, 2), CsvTable::num(replacedPct, 1),
                  CsvTable::num(static_cast<long long>(mismatches))});
    const double zdMed = medianMs(zeroDeltaMs);
    const double midMed = medianMs(midGraphMs);
    const double wholeMed = medianMs(graphStartMs);
    json.beginRecord()
        .field("instance", static_cast<long long>(size))
        .field("full_median_ms", fullMed)
        .field("inc_median_ms", incMed)
        .field("speedup", speedup)
        .field("jobs_replaced_pct", replacedPct)
        .field("zero_delta_count", static_cast<long long>(zeroDeltaMs.size()))
        .field("zero_delta_median_ms", zdMed)
        .field("mid_graph_count", static_cast<long long>(midGraphMs.size()))
        .field("mid_graph_median_ms", midMed)
        .field("graph_start_count",
               static_cast<long long>(graphStartMs.size()))
        .field("graph_start_median_ms", wholeMed)
        .field("mismatches", static_cast<long long>(mismatches));
    std::printf(
        "  [n=%zu, %zu graphs] full=%.4fms inc=%.4fms -> %.2fx "
        "(%.1f%% of visited jobs re-placed, %zu mismatches)\n"
        "      by walk start: zero-delta %zux %.4fms | mid-graph %zux "
        "%.4fms | graph-start %zux %.4fms\n",
        size, graphCount, fullMed, incMed, speedup, replacedPct, mismatches,
        zeroDeltaMs.size(), zdMed, midGraphMs.size(), midMed,
        graphStartMs.size(), wholeMed);
  }

  std::printf("\n");
  printTableAndCsv(table);
  json.write();
  std::printf(
      "\nmismatches must be 0: the walk is bit-identical to the\n"
      "full pass (also enforced by core.EvalContext property tests).\n");
  return 0;
}
