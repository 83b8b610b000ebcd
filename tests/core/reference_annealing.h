// The plain SA chain the determinism suites compare runSimulatedAnnealing
// against: one Metropolis step per iteration over the stateless full pass
// (SolutionEvaluator::evaluate), with no EvalContext, no zero-delta filter
// and no worker pool. It shares only the kernels that define the chain —
// SaMoveProposer, saSchedule, metropolisAccept and the rngStreamSeed split —
// so every production shortcut (delta evaluation, zero-delta replay,
// speculation batches) must reproduce it draw for draw. zeroDeltaSkips,
// discardedEvaluations and speculativeBatches stay 0 here.
#pragma once

#include <utility>

#include "core/simulated_annealing.h"

namespace ides::testing {

inline SaResult referenceAnnealing(const SolutionEvaluator& evaluator,
                                   const MappingSolution& initial,
                                   const SaOptions& options) {
  const SaMoveProposer proposer(evaluator, options);
  Rng proposalRng(rngStreamSeed(options.seed, kSaProposalStream));
  Rng acceptanceRng(rngStreamSeed(options.seed, kSaAcceptanceStream));

  SaResult result;
  result.solution = initial;
  result.eval = evaluator.evaluate(initial);
  result.evaluations = 1;
  MappingSolution current = initial;
  double currentCost = result.eval.cost;
  const SaSchedule schedule = saSchedule(options, currentCost);
  double temp = schedule.t0;
  for (int it = 0; it < options.iterations; ++it, temp *= schedule.alpha) {
    const SaMove move = proposer.propose(current, proposalRng);
    ++result.proposals;
    if (move.kind != SaMove::Kind::None) {
      MappingSolution trial = current;
      SaMoveProposer::apply(move, trial);
      const EvalResult r = evaluator.evaluate(trial);
      ++result.evaluations;
      if (metropolisAccept(r.cost - currentCost, temp, acceptanceRng)) {
        current = std::move(trial);
        currentCost = r.cost;
        ++result.accepted;
        if (r.feasible && r.cost < result.eval.cost) {
          result.solution = current;
          result.eval = r;
        }
      }
    }
    if (options.recordCostTrace) result.costTrace.push_back(currentCost);
  }
  return result;
}

}  // namespace ides::testing
