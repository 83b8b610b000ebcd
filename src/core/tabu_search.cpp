#include "core/tabu_search.h"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/simulated_annealing.h"
#include "model/system_model.h"
#include "util/rng.h"

namespace ides {

void validateOptions(const TabuOptions& options) {
  if (options.iterations < 0) {
    throw std::invalid_argument("TabuOptions: iterations must be >= 0");
  }
  if (options.candidates < 1) {
    throw std::invalid_argument("TabuOptions: candidates must be >= 1");
  }
  if (options.tenure < 0) {
    throw std::invalid_argument("TabuOptions: tenure must be >= 0");
  }
  const auto probOk = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probOk(options.probRemap) || !probOk(options.probProcessHint) ||
      options.probRemap + options.probProcessHint > 1.0) {
    throw std::invalid_argument(
        "TabuOptions: move probabilities must be in [0, 1] and sum to <= 1");
  }
}

TabuResult runTabuSearch(const SolutionEvaluator& evaluator,
                         const MappingSolution& initial,
                         const TabuOptions& options, EvalContext* scratch) {
  validateOptions(options);
  const SystemModel& sys = evaluator.system();

  // Reuse the SA move kernel; only the mix knobs carry over.
  SaOptions kernel;
  kernel.probRemap = options.probRemap;
  kernel.probProcessHint = options.probProcessHint;
  const SaMoveProposer proposer(evaluator, kernel);

  std::optional<EvalContext> owned;
  EvalContext& ctx = scratch != nullptr ? *scratch : owned.emplace(evaluator);

  TabuResult result;
  MappingSolution current = initial;
  EvalResult curEval = ctx.evaluate(current);
  result.evaluations = 1;
  if (!curEval.feasible) {
    throw std::invalid_argument(
        "runTabuSearch: initial solution must be feasible");
  }
  result.solution = current;
  result.eval = curEval;
  double bestCost = curEval.cost;

  // Recency memory, expiry-stamped: an attribute is tabu while its stamp is
  // > the current iteration. Keys are the REVERSED attributes — the node a
  // process just left, the hint that was just set — so the walk cannot
  // immediately undo itself.
  const std::size_t nodeCount = sys.architecture().nodeCount();
  std::vector<int> remapExpiry(sys.processes().size() * nodeCount, 0);
  std::vector<int> hintExpiry(sys.processes().size(), 0);
  std::vector<int> msgExpiry(sys.messages().size(), 0);

  const auto isTabu = [&](const SaMove& move, int iter) {
    switch (move.kind) {
      case SaMove::Kind::Remap:
        return remapExpiry[static_cast<std::size_t>(move.process.index()) *
                               nodeCount +
                           static_cast<std::size_t>(move.node.index())] > iter;
      case SaMove::Kind::ProcessHint:
        return hintExpiry[move.process.index()] > iter;
      case SaMove::Kind::MessageHint:
        return msgExpiry[move.message.index()] > iter;
      case SaMove::Kind::None:
        break;
    }
    return false;
  };

  Rng proposalRng(rngStreamSeed(options.seed, kSaProposalStream));
  MappingSolution candidate;

  for (int iter = 0; iter < options.iterations; ++iter) {
    if (options.stop != nullptr && options.stop->stopRequested()) {
      result.stopped = true;
      break;
    }

    // Draw and evaluate the candidate batch against the current state. The
    // batch selection is deterministic: lowest cost wins, first-drawn on
    // ties, admissible (non-tabu or aspiring) candidates strictly before
    // inadmissible ones.
    bool haveChoice = false;
    bool choiceAdmissible = false;
    double choiceCost = 0.0;
    SaMove choiceMove;
    EvalResult choiceEval;
    for (int c = 0; c < options.candidates; ++c) {
      const SaMove move = proposer.propose(current, proposalRng);
      ++result.proposals;
      if (move.kind == SaMove::Kind::None) continue;
      candidate = current;
      SaMoveProposer::apply(move, candidate);
      const EvalResult eval = ctx.evaluate(candidate, move.evalHint);
      ++result.evaluations;
      // Aspiration: a tabu move that beats the incumbent is admissible.
      const bool admissible = !isTabu(move, iter) ||
                              (eval.feasible && eval.cost < bestCost);
      const bool better =
          !haveChoice || (admissible && !choiceAdmissible) ||
          (admissible == choiceAdmissible && eval.cost < choiceCost);
      if (better) {
        haveChoice = true;
        choiceAdmissible = admissible;
        choiceCost = eval.cost;
        choiceMove = move;
        choiceEval = eval;
      }
    }
    if (!haveChoice) continue;  // every draw was a None move

    // Stamp the reversed attribute tabu, then always take the move (the
    // memory, not the acceptance rule, provides the diversification).
    switch (choiceMove.kind) {
      case SaMove::Kind::Remap:
        remapExpiry[static_cast<std::size_t>(choiceMove.process.index()) *
                        nodeCount +
                    static_cast<std::size_t>(
                        current.nodeOf(choiceMove.process).index())] =
            iter + 1 + options.tenure;
        break;
      case SaMove::Kind::ProcessHint:
        hintExpiry[choiceMove.process.index()] = iter + 1 + options.tenure;
        break;
      case SaMove::Kind::MessageHint:
        msgExpiry[choiceMove.message.index()] = iter + 1 + options.tenure;
        break;
      case SaMove::Kind::None:
        break;
    }
    SaMoveProposer::apply(choiceMove, current);
    curEval = choiceEval;
    ++result.accepted;

    if (curEval.feasible && curEval.cost < bestCost) {
      bestCost = curEval.cost;
      result.solution = current;
      result.eval = curEval;
    }
  }
  return result;
}

}  // namespace ides
