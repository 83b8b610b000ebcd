#include "bench.h"
#include "core/simulated_annealing.h"
#include "spans.h"
#include "util/rng.h"

namespace idesbench {

ides::SuiteConfig paperInstanceConfig(std::size_t current) {
  // The exact generator configuration of runDesignJob, so a probe instance
  // is the instance the design jobs of the same seed run on.
  ides::SuiteConfig config;
  config.nodeCount = 10;
  config.existingProcesses = 400;
  config.currentProcesses = current;
  config.tneedOverride = 12000;
  return config;
}

std::unique_ptr<Instance> buildInstance(std::size_t current,
                                        std::uint64_t genSeed) {
  std::unique_ptr<Instance> inst;
  {
    const Span span("tgen.build_suite");
    inst = std::make_unique<Instance>(
        current, genSeed,
        ides::buildSuite(paperInstanceConfig(current), genSeed));
  }
  {
    const Span span("sched.freeze");
    inst->frozen = ides::freezeExistingApplications(inst->suite.system);
  }
  if (!inst->frozen->feasible) return inst;
  inst->evaluator = std::make_unique<ides::SolutionEvaluator>(
      inst->suite.system, inst->frozen->state, inst->suite.profile,
      ides::MetricWeights{});
  ides::PlatformState state = inst->frozen->state;
  ides::ScheduleOutcome im;
  {
    const Span span("sched.initial_mapping");
    im = ides::initialMapping(inst->suite.system, state);
  }
  inst->initial = im.mapping;
  inst->usable = im.feasible;
  return inst;
}

WalkStats evalWalk(const Instance& inst, int moves, std::uint64_t seed,
                   std::vector<WalkMove>* timings) {
  const ides::SolutionEvaluator& evaluator = *inst.evaluator;
  const ides::SaMoveProposer proposer(evaluator, ides::SaOptions{});
  ides::Rng rng(seed);

  // Record the walk first: a move is kept when it evaluates feasibly (an
  // untimed context decides), so the walk stays where SA explores and the
  // occasional rejection exercises the stale-checkpoint path.
  std::vector<ides::MappingSolution> trials;
  std::vector<ides::MoveHint> hints;
  {
    ides::EvalContext decide(evaluator);
    ides::MappingSolution current = inst.initial;
    decide.evaluate(current);
    for (int i = 0; i < moves; ++i) {
      const ides::SaMove move = proposer.propose(current, rng);
      if (move.kind == ides::SaMove::Kind::None) continue;
      ides::MappingSolution trial = current;
      ides::SaMoveProposer::apply(move, trial);
      trials.push_back(trial);
      hints.push_back(move.evalHint);
      if (decide.evaluate(trial, move.evalHint).feasible) {
        current = std::move(trial);
      }
    }
  }

  WalkStats stats;
  stats.moves = trials.size();
  std::vector<double> fullCost(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Span span("core.eval.full");
    const Clock::time_point t0 = Clock::now();
    fullCost[i] = evaluator.evaluate(trials[i]).cost;
    if (timings != nullptr) timings->push_back({msSince(t0) * 1000.0, 0.0, {}});
  }
  ides::EvalContext ctx(evaluator);
  ctx.evaluate(inst.initial);  // prime the checkpoints, as SA does
  std::size_t serves = ctx.zeroDeltaServes();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    double cost = 0.0;
    double us = 0.0;
    {
      const Span span("core.eval.inc");
      const Clock::time_point t0 = Clock::now();
      cost = ctx.evaluate(trials[i], hints[i]).cost;
      us = msSince(t0) * 1000.0;
    }
    if (cost != fullCost[i]) ++stats.mismatches;
    if (timings == nullptr) continue;
    WalkMove& m = (*timings)[i];
    m.incUs = us;
    if (ctx.zeroDeltaServes() != serves) {
      serves = ctx.zeroDeltaServes();
      m.depth = WalkMove::Depth::ZeroDelta;
    } else {
      m.depth = ctx.lastRestartPosition() > 0 ? WalkMove::Depth::MidGraph
                                               : WalkMove::Depth::GraphStart;
    }
  }
  return stats;
}

SpecComparison compareSpeculation(const Instance& inst, int iterations,
                                  int workers, std::uint64_t seed) {
  ides::SaOptions options;
  options.seed = seed;
  options.iterations = iterations;
  options.recordCostTrace = true;
  SpecComparison out;
  {
    const Span span("core.sa.sequential");
    const Clock::time_point t0 = Clock::now();
    out.sequential =
        ides::runSimulatedAnnealing(*inst.evaluator, inst.initial, options);
    out.sequentialSeconds = secondsSince(t0);
  }
  options.speculation.workers = workers;
  {
    const Span span("core.sa.speculative");
    const Clock::time_point t0 = Clock::now();
    out.speculative =
        ides::runSimulatedAnnealing(*inst.evaluator, inst.initial, options);
    out.speculativeSeconds = secondsSince(t0);
  }
  const ides::SaResult& a = out.sequential;
  const ides::SaResult& b = out.speculative;
  out.identical = a.solution == b.solution && a.eval.cost == b.eval.cost &&
                  a.evaluations == b.evaluations && a.accepted == b.accepted &&
                  a.proposals == b.proposals &&
                  a.zeroDeltaSkips == b.zeroDeltaSkips &&
                  a.costTrace == b.costTrace;
  return out;
}

}  // namespace idesbench
