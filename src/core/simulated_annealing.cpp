#include "core/simulated_annealing.h"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/speculative_eval.h"
#include "model/system_model.h"
#include "obs/telemetry.h"
#include "util/log.h"

namespace ides {

namespace {

// Speculation shape. A batch starts at `workers` moves, doubles after a
// fully rejected batch and halves after an acceptance, within
// [workers, kSpeculationDepthPerWorker * workers]. The chain speculates only
// while the acceptance rate over the last kSpeculationWindow Metropolis
// decisions is below kSpeculationThreshold: above it most batches would
// commit their first move and throw the pre-evaluated tail away. The floor
// of the observed rate is the zero-delta rate (hint moves that leave the
// schedule untouched are always accepted, and still invalidate later
// speculations), ~0.4 on loaded instances; a batch of K still replays
// sum (1-p)^i > 1 iterations per parallel round below ~0.55.
constexpr int kSpeculationDepthPerWorker = 4;
constexpr double kSpeculationThreshold = 0.55;
constexpr std::size_t kSpeculationWindow = 48;

[[noreturn]] void invalidOption(const char* field, const std::string& detail) {
  throw std::invalid_argument(std::string("SaOptions: ") + field + " " +
                              detail);
}

/// Ring buffer over the last kSpeculationWindow Metropolis decisions.
/// rate() is 1.0 until the first decision lands — the chain starts hot, so
/// defaulting to "high acceptance" keeps the warm-up inline. Deterministic
/// by construction: the content is a pure function of the decision
/// sequence.
class AcceptanceWindow {
 public:
  void push(bool accepted) {
    const char value = accepted ? 1 : 0;
    if (size_ == ring_.size()) {
      accepted_ += value - ring_[head_];
      ring_[head_] = value;
      head_ = (head_ + 1) % ring_.size();
    } else {
      ring_[(head_ + size_) % ring_.size()] = value;
      accepted_ += value;
      ++size_;
    }
  }

  [[nodiscard]] double rate() const {
    return size_ == 0 ? 1.0
                      : static_cast<double>(accepted_) /
                            static_cast<double>(size_);
  }

 private:
  std::array<char, kSpeculationWindow> ring_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  int accepted_ = 0;
};

}  // namespace

void validateOptions(const SaOptions& options) {
  if (options.iterations < 0) {
    invalidOption("iterations",
                  "must be >= 0 (got " + std::to_string(options.iterations) +
                      ")");
  }
  if (!(options.initialTempFactor >= 0.0) ||
      !std::isfinite(options.initialTempFactor)) {
    invalidOption("initialTempFactor", "must be finite and >= 0");
  }
  if (!(options.finalTemp > 0.0) || !std::isfinite(options.finalTemp)) {
    invalidOption("finalTemp", "must be finite and > 0");
  }
  const auto isProbability = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  if (!isProbability(options.probRemap) ||
      !isProbability(options.probProcessHint) ||
      options.probRemap + options.probProcessHint > 1.0) {
    invalidOption("move mix",
                  "probRemap and probProcessHint must each lie in [0, 1] "
                  "and sum to at most 1");
  }
  const int workers = options.speculation.workers;
  if (workers < 0 || workers > kMaxAnnealingThreads) {
    invalidOption("speculation.workers",
                  "must lie in [0, " + std::to_string(kMaxAnnealingThreads) +
                      "] (got " + std::to_string(workers) + ")");
  }
}

SaMoveProposer::SaMoveProposer(const SolutionEvaluator& evaluator,
                               const SaOptions& options)
    : sys_(&evaluator.system()),
      probRemap_(options.probRemap),
      probProcessHint_(options.probProcessHint) {
  for (GraphId g : evaluator.currentGraphs()) {
    const ProcessGraph& graph = sys_->graph(g);
    procs_.insert(procs_.end(), graph.processes.begin(),
                  graph.processes.end());
    msgs_.insert(msgs_.end(), graph.messages.begin(), graph.messages.end());
  }
  if (procs_.empty()) {
    throw std::invalid_argument("runSimulatedAnnealing: empty application");
  }
  allowedSpan_.assign(sys_->processes().size(), {0, 0});
  for (const ProcessId p : procs_) {
    const std::vector<NodeId> nodes = sys_->process(p).allowedNodes();
    allowedSpan_[p.index()] = {static_cast<std::uint32_t>(allowed_.size()),
                               static_cast<std::uint32_t>(nodes.size())};
    allowed_.insert(allowed_.end(), nodes.begin(), nodes.end());
  }
}

SaMove SaMoveProposer::propose(const MappingSolution& current,
                               Rng& proposalRng) const {
  SaMove move;
  const double dice = proposalRng.uniform01();
  if (dice < probRemap_) {
    // Re-map a process to a random allowed node, ASAP.
    const ProcessId p = proposalRng.pick(procs_);
    const auto [begin, count] = allowedSpan_[p.index()];
    move.kind = SaMove::Kind::Remap;
    move.process = p;
    move.node = allowed_[begin + proposalRng.index(count)];
    move.evalHint.graph = sys_->process(p).graph;
    move.evalHint.process = p;
  } else if (dice < probRemap_ + probProcessHint_) {
    // Move a process into a random slack of its node: a random
    // period-relative start hint that still leaves room for the WCET.
    const ProcessId p = proposalRng.pick(procs_);
    const Process& proc = sys_->process(p);
    const ProcessGraph& graph = sys_->graph(proc.graph);
    const Time maxHint = std::max<Time>(
        0, graph.deadline - proc.wcetOn(current.nodeOf(p)));
    move.kind = SaMove::Kind::ProcessHint;
    move.process = p;
    move.hint = maxHint > 0 ? proposalRng.uniformInt(0, maxHint) : 0;
    move.evalHint.graph = proc.graph;
    move.evalHint.process = p;
  } else if (!msgs_.empty()) {
    // Move a message into a random bus slack.
    const MessageId m = proposalRng.pick(msgs_);
    const ProcessGraph& graph = sys_->graph(sys_->message(m).graph);
    move.kind = SaMove::Kind::MessageHint;
    move.message = m;
    move.hint = proposalRng.uniformInt(0, graph.deadline - 1);
    move.evalHint.graph = graph.id;
    move.evalHint.message = m;
  }
  return move;  // Kind::None when the message branch found nothing to move
}

void SaMoveProposer::apply(const SaMove& move, MappingSolution& solution) {
  switch (move.kind) {
    case SaMove::Kind::None:
      break;
    case SaMove::Kind::Remap:
      solution.setNode(move.process, move.node);
      solution.setStartHint(move.process, 0);
      break;
    case SaMove::Kind::ProcessHint:
      solution.setStartHint(move.process, move.hint);
      break;
    case SaMove::Kind::MessageHint:
      solution.setMessageHint(move.message, move.hint);
      break;
  }
}

// ---- ZeroDeltaFilter ------------------------------------------------------

ZeroDeltaFilter::ZeroDeltaFilter(const SolutionEvaluator& evaluator)
    : ev_(&evaluator), sys_(&evaluator.system()) {
  const SystemModel& sys = *sys_;
  period_.assign(sys.processes().size(), 0);
  instances_.assign(sys.processes().size(), 0);
  for (const GraphId g : evaluator.currentGraphs()) {
    const ProcessGraph& graph = sys.graph(g);
    const auto instances = static_cast<std::int32_t>(sys.instanceCount(g));
    for (const ProcessId p : graph.processes) {
      const auto pi = static_cast<std::size_t>(p.index());
      period_[pi] = graph.period;
      instances_[pi] = instances;
    }
  }
}

void ZeroDeltaFilter::captureAccepted(const EvalContext& ctx,
                                      const EvalResult& result) {
  if (!result.feasible) {
    valid_ = false;
    return;
  }
  arrivals_ = ctx.arrivalBounds();
  const std::vector<ScheduledProcess>& procs = ctx.processes();
  ends_.resize(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) ends_[i] = procs[i].end;
  valid_ = true;
}

void ZeroDeltaFilter::capture(const std::vector<Time>& arrivals,
                              const std::vector<Time>& ends) {
  arrivals_ = arrivals;
  ends_ = ends;
  valid_ = true;
}

bool ZeroDeltaFilter::zeroDelta(const SaMove& move,
                                const MappingSolution& current) const {
  if (!valid_) return false;
  switch (move.kind) {
    case SaMove::Kind::ProcessHint: {
      const ProcessId p = move.process;
      const Time bound =
          std::max(current.startHint(p), move.hint);  // covers old and new
      const auto pi = static_cast<std::size_t>(p.index());
      const Time period = period_[pi];
      for (std::int32_t k = 0; k < instances_[pi]; ++k) {
        if (static_cast<Time>(k) * period + bound >
            arrivals_[ev_->jobIndexOf(p, k)]) {
          return false;
        }
      }
      return true;
    }
    case SaMove::Kind::MessageHint: {
      const Message& msg = sys_->message(move.message);
      if (current.nodeOf(msg.src) == current.nodeOf(msg.dst)) {
        return true;  // hand-off never reads the hint
      }
      const Time bound = std::max(current.messageHint(move.message), move.hint);
      const auto pi = static_cast<std::size_t>(msg.src.index());
      const Time period = period_[pi];
      for (std::int32_t k = 0; k < instances_[pi]; ++k) {
        if (static_cast<Time>(k) * period + bound >
            ends_[ev_->jobIndexOf(msg.src, k)]) {
          return false;
        }
      }
      return true;
    }
    case SaMove::Kind::Remap:
    case SaMove::Kind::None:
      return false;
  }
  return false;
}

SaSchedule saSchedule(const SaOptions& options, double initialCost) {
  SaSchedule s;
  // Proportional to the starting cost, floored at finalTemp (never a
  // heating schedule). An absolute floor of 1.0 here used to make the
  // start infinitely hot for sub-unit objectives — small instances and
  // lifecycle steps — where it erased any good starting solution before
  // the chain cooled into the exploitation regime.
  s.t0 = std::max(options.finalTemp,
                  options.initialTempFactor * initialCost);
  s.alpha = options.iterations > 1
                ? std::pow(options.finalTemp / s.t0,
                           1.0 / static_cast<double>(options.iterations - 1))
                : 1.0;
  return s;
}

SaResult runSimulatedAnnealing(const SolutionEvaluator& evaluator,
                               const MappingSolution& initial,
                               const SaOptions& options,
                               EvalContext* scratch) {
  validateOptions(options);
  if (scratch != nullptr && &scratch->evaluator() != &evaluator) {
    throw std::invalid_argument(
        "runSimulatedAnnealing: scratch context bound to another evaluator");
  }
  const int workers = std::max(1, options.speculation.workers);
  const int maxDepth = kSpeculationDepthPerWorker * workers;

  const SaMoveProposer proposer(evaluator, options);
  SpeculativeEvalPool pool(evaluator, workers, scratch);
  EvalContext& ctx = pool.context0();
  Rng proposalRng(rngStreamSeed(options.seed, kSaProposalStream));
  Rng acceptanceRng(rngStreamSeed(options.seed, kSaAcceptanceStream));

  SaResult result;
  result.solution = initial;
  result.eval = ctx.evaluate(initial);
  result.evaluations = 1;
  if (!result.eval.feasible) {
    throw std::invalid_argument("runSimulatedAnnealing: initial not feasible");
  }
  // Gap-fingerprint filter: provably schedule-identical hint moves are
  // replayed without evaluation. Their acceptance is certain, so a batch
  // stops proposing at the first one — everything after it would be
  // discarded anyway.
  ZeroDeltaFilter filter(evaluator);
  filter.captureAccepted(ctx, result.eval);
  if (options.recordCostTrace) {
    result.costTrace.reserve(static_cast<std::size_t>(options.iterations));
  }

  MappingSolution current = initial;
  double currentCost = result.eval.cost;
  const SaSchedule schedule = saSchedule(options, result.eval.cost);
  double temp = schedule.t0;
  AcceptanceWindow window;
  int depth = workers;

  // Per-batch scratch, reused across batches.
  std::vector<SaMove> moves;
  std::vector<Rng> proposalAfter;  // stream state after each proposal
  std::vector<MappingSolution> trials;
  std::vector<SpeculativeEvalPool::Item> items;

  int it = 0;
  while (it < options.iterations) {
    // Cooperative stop, polled once per batch. The poll never touches the
    // RNG streams, so an unfired token leaves the trajectory bit-identical.
    if (options.stop != nullptr && options.stop->stopRequested()) {
      result.stopped = true;
      break;
    }
    // A batch of one move, or `depth` moves that each assume every earlier
    // one in the batch is rejected (they all perturb `current`).
    const bool speculate =
        workers > 1 && window.rate() < kSpeculationThreshold;
    const int batchSize =
        speculate ? std::min(depth, options.iterations - it) : 1;
    const auto size = static_cast<std::size_t>(batchSize);
    moves.clear();
    proposalAfter.clear();
    if (trials.size() < size) trials.resize(size);
    if (items.size() < size) items.resize(size);
    int generated = 0;
    int skipIndex = -1;  // first zero-delta proposal; never evaluated
    for (int j = 0; j < batchSize; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      const SaMove move = proposer.propose(current, proposalRng);
      moves.push_back(move);
      if (speculate) proposalAfter.push_back(proposalRng);
      ++generated;
      items[idx].trial = nullptr;
      if (move.kind == SaMove::Kind::None) continue;
      if (filter.zeroDelta(move, current)) {
        skipIndex = j;
        break;
      }
      trials[idx] = current;
      SaMoveProposer::apply(move, trials[idx]);
      items[idx].trial = &trials[idx];
      items[idx].hint = move.evalHint;
    }
    if (speculate) {
      pool.evaluate(items.data(), static_cast<std::size_t>(generated));
      ++result.speculativeBatches;
      // Batch shape telemetry (write-only; the adaptive depth never reads
      // it): how deep the speculation window actually ran.
      static Histogram& batchDepth = telemetry().histogram(
          "ides_sa_speculation_batch_depth",
          "Moves dispatched per speculative evaluation batch",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
      batchDepth.observe(static_cast<double>(generated));
    } else if (items[0].trial != nullptr) {
      items[0].result = ctx.evaluate(*items[0].trial, items[0].hint);
    }

    // Replay the Metropolis decisions in chain order, up to the first
    // acceptance.
    bool acceptedInBatch = false;
    for (int j = 0; j < generated && !acceptedInBatch; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      const SaMove& move = moves[idx];
      // Counted at replay, not at proposal: proposals rewound after an
      // acceptance are re-drawn by the next batch.
      ++result.proposals;
      if (j == skipIndex) {
        // Zero-delta: the evaluation would return exactly currentCost, so
        // delta == 0 accepts without an acceptance draw and the incumbent
        // cannot improve. The window is not pushed — these auto-accepts say
        // nothing about the real acceptance rate — and the fingerprint
        // stays valid (the schedule is unchanged).
        SaMoveProposer::apply(move, current);
        ++result.evaluations;
        ++result.zeroDeltaSkips;
        ++result.accepted;
        acceptedInBatch = true;
      } else if (move.kind != SaMove::Kind::None) {
        const SpeculativeEvalPool::Item& item = items[idx];
        const EvalResult& r = item.result;
        ++result.evaluations;
        acceptedInBatch =
            metropolisAccept(r.cost - currentCost, temp, acceptanceRng);
        window.push(acceptedInBatch);
        if (acceptedInBatch) {
          current = std::move(trials[idx]);
          currentCost = r.cost;
          ++result.accepted;
          if (r.feasible && r.cost < result.eval.cost) {
            result.solution = current;
            result.eval = r;
            IDES_LOG_AT(LogLevel::Debug)
                << "SA iter " << it << ": best C=" << r.cost << " T=" << temp;
          }
          if (!speculate) {
            filter.captureAccepted(ctx, r);
          } else if (r.feasible) {
            filter.capture(item.arrivals, item.ends);
          } else {
            filter.invalidate();
          }
        }
      }
      if (options.recordCostTrace) result.costTrace.push_back(currentCost);
      ++it;
      temp *= schedule.alpha;
      if (acceptedInBatch && speculate) {
        // The acceptance invalidates the later speculations: discard them
        // and rewind the proposal stream to its state right after the
        // winning proposal. The worker contexts re-align with `current`
        // lazily, on their next evaluation.
        for (int k = j + 1; k < generated; ++k) {
          if (items[static_cast<std::size_t>(k)].trial != nullptr) {
            ++result.discardedEvaluations;
          }
        }
        proposalRng = proposalAfter[idx];
      }
    }
    if (speculate) {
      depth = acceptedInBatch ? std::max(workers, depth / 2)
                              : std::min(depth * 2, maxDepth);
    }
  }
  return result;
}

}  // namespace ides
