// The pluggable optimizer API.
//
// Every mapping strategy — the paper's AH / MH / SA and this repo's PSA —
// is an Optimizer: `name()` plus `run(evaluator, context) -> RunReport`.
// All optimizers share the same contract and one run body: start from the
// Initial Mapping on the evaluator's frozen baseline (or from a caller's
// warm-start seed that still evaluates feasibly), improve it, and report the
// final solution with its metrics. Construction takes the strategy's typed
// options struct, so configuration stays statically checked; resolution by
// name goes through the StrategyRegistry, which is what the CLI, the batch
// runner and the IncrementalDesigner facade use. Adding a strategy is one
// subclass plus one registry entry — no switch statements to extend.
//
// RunContext carries the run's cross-cutting services:
//   * an EvalContextPool lease — per-thread delta-aware evaluation scratch,
//     shared across successive runs on the same evaluator (the AH/MH/SA
//     comparison on one instance re-uses one pool instead of re-copying the
//     baseline per strategy);
//   * a cooperative StopToken (deadline + cancellation) threaded into the
//     strategy inner loops, so a fired token yields a well-formed partial
//     result with RunReport::stopped set;
//   * a ProgressSink notified at the run's phase boundaries.
//
// Determinism: an optimizer's RunReport is a pure function of (evaluator,
// typed options); the context services never perturb results — pool
// contexts are verified-never-trusted, and an unfired stop token leaves
// trajectories bit-identical (asserted by the optimizer test suite against
// direct runSimulatedAnnealing / runParallelAnnealing calls).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/mapping_heuristic.h"
#include "core/metrics.h"
#include "core/parallel_annealing.h"
#include "core/simulated_annealing.h"
#include "core/tabu_search.h"
#include "obs/trace.h"
#include "sched/schedule.h"
#include "util/stop_token.h"

namespace ides {

/// One bag of options for every built-in strategy: the registry factories
/// pick the fields their optimizer needs, so a single instance configures a
/// whole AH/MH/SA/PSA comparison consistently.
struct DesignerOptions {
  MetricWeights weights;
  MhOptions mh;
  /// Chain parameters for both SA and PSA (PSA overrides `psa.base` with
  /// this, so one knob set configures the single chain and the ensemble).
  SaOptions sa;
  /// PSA ensemble shape (threads/restarts/perChainIterations); `psa.base`
  /// is ignored here — see `sa`.
  ParallelSaOptions psa;
  /// Tabu-search budget and memory shape (the "tabu" registry entry).
  TabuOptions tabu;
};

/// Range-checks the weights and every embedded strategy option set; throws
/// std::invalid_argument naming the offending field. Called by the
/// IncrementalDesigner constructor and the registry factories, so invalid
/// configurations fail loudly at setup instead of misbehaving silently.
void validateOptions(const DesignerOptions& options);

/// One phase-boundary notification of an optimizer or batch run.
struct ProgressEvent {
  std::string_view optimizer;  ///< Optimizer::name() (or batch instance id)
  std::string_view phase;      ///< "initial-mapping", "improve", "final", …
  std::size_t step = 0;        ///< phase-dependent counter (e.g. instance #)
  std::size_t total = 0;       ///< counter bound when known, else 0
  double cost = 0.0;           ///< current objective/cost when known
};
using ProgressSink = std::function<void(const ProgressEvent&)>;

/// Cross-cutting services of one or more optimizer runs. Reusable: running
/// several strategies on the same evaluator through one context shares the
/// leased evaluation pool.
class RunContext {
 public:
  RunContext() = default;

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Cooperative cancellation; null = never stops.
  const StopToken* stop = nullptr;
  /// Phase-boundary progress notifications; empty = silent.
  ProgressSink progress;

  [[nodiscard]] bool stopRequested() const {
    return stop != nullptr && stop->stopRequested();
  }
  void report(const ProgressEvent& event) const {
    if (traceEnabled()) {
      traceInstant(
          std::string(event.optimizer) + ":" + std::string(event.phase),
          "progress");
    }
    if (progress) progress(event);
  }

  /// Lease of a per-run EvalContextPool bound to `evaluator`, created on
  /// first use and reused by later calls with the same evaluator (grown if
  /// a later caller asks for more contexts). Asking for a different
  /// evaluator drops the old pool — a lease never outlives its evaluator
  /// as long as the context is not reused across evaluator lifetimes
  /// (the batch runner builds one RunContext per instance for exactly this
  /// reason).
  EvalContextPool& leasePool(const SolutionEvaluator& evaluator,
                             std::size_t size);

 private:
  std::unique_ptr<EvalContextPool> pool_;
  const SolutionEvaluator* poolEvaluator_ = nullptr;
};

/// What every strategy reports: the paper's comparison row for one run.
struct RunReport {
  std::string strategy;  ///< Optimizer::name()
  bool feasible = false;
  MappingSolution mapping;
  /// Schedule of the current application only (frozen part excluded).
  Schedule schedule;
  DesignMetrics metrics;
  /// Objective C of the final solution.
  double objective = 0.0;
  /// Wall-clock runtime in seconds (includes the Initial Mapping).
  double seconds = 0.0;
  std::size_t evaluations = 0;
  /// Move-generation telemetry of the improvement phase, summed over every
  /// annealing chain the strategy ran (all zero for AH and MH, which do not
  /// draw from a proposal stream): proposals drawn, moves accepted, and the
  /// subset of proposals the gap-fingerprint zero-delta filter replayed
  /// without any evaluation.
  std::size_t proposals = 0;
  std::size_t accepted = 0;
  std::size_t zeroDeltaSkips = 0;
  /// True when a StopToken ended the run before its configured budget.
  bool stopped = false;
};

/// A mapping strategy. Implementations are immutable after construction
/// (options are taken by value), so one instance can serve concurrent runs
/// on different evaluators.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Full strategy run: start, improvement, final evaluation. The start is
  /// `warmStart` when it is non-null and evaluates feasibly on this
  /// evaluator (progress phase "warm-start"), else the Initial Mapping on
  /// the evaluator's baseline ("initial-mapping"). An infeasible seed —
  /// e.g. lifecycle placements gone stale after a platform perturbation —
  /// still counts its one validation evaluation in the report. Never
  /// returns an infeasible mapping as feasible; a fired stop token yields
  /// the best solution found so far.
  [[nodiscard]] RunReport run(
      const SolutionEvaluator& evaluator, RunContext& context,
      const MappingSolution* warmStart = nullptr) const;

 protected:
  /// Strategy hook: improve `solution` (feasible on entry) in place and
  /// return the number of schedule evaluations consumed. Sets
  /// `report.stopped` when a stop token cut the improvement short and fills
  /// the report's move-generation telemetry (proposals / accepted /
  /// zeroDeltaSkips) where the strategy tracks it.
  virtual std::size_t improve(const SolutionEvaluator& evaluator,
                              MappingSolution& solution, RunContext& context,
                              RunReport& report) const = 0;
};

/// AH — stop at the first valid solution (the Initial Mapping).
class AdHocOptimizer final : public Optimizer {
 public:
  AdHocOptimizer() = default;
  [[nodiscard]] std::string name() const override { return "AH"; }

 protected:
  std::size_t improve(const SolutionEvaluator&, MappingSolution&,
                      RunContext&, RunReport&) const override {
    return 0;
  }
};

/// MH — the paper's iterative improvement heuristic.
class MappingHeuristicOptimizer final : public Optimizer {
 public:
  explicit MappingHeuristicOptimizer(MhOptions options = {});
  [[nodiscard]] std::string name() const override { return "MH"; }
  [[nodiscard]] const MhOptions& options() const { return options_; }

 protected:
  std::size_t improve(const SolutionEvaluator& evaluator,
                      MappingSolution& solution, RunContext& context,
                      RunReport& report) const override;

 private:
  MhOptions options_;
};

/// SA — the near-optimal simulated-annealing reference (speculative
/// parallel evaluation included, per options.speculation).
class SimulatedAnnealingOptimizer final : public Optimizer {
 public:
  explicit SimulatedAnnealingOptimizer(SaOptions options = {});
  [[nodiscard]] std::string name() const override { return "SA"; }
  [[nodiscard]] const SaOptions& options() const { return options_; }

 protected:
  std::size_t improve(const SolutionEvaluator& evaluator,
                      MappingSolution& solution, RunContext& context,
                      RunReport& report) const override;

 private:
  SaOptions options_;
};

/// PSA — best-of-K multi-start SA on a thread pool, composing SA's
/// speculative workers unchanged (two-level parallelism).
class ParallelAnnealingOptimizer final : public Optimizer {
 public:
  explicit ParallelAnnealingOptimizer(ParallelSaOptions options = {});
  [[nodiscard]] std::string name() const override { return "PSA"; }
  [[nodiscard]] const ParallelSaOptions& options() const { return options_; }

 protected:
  std::size_t improve(const SolutionEvaluator& evaluator,
                      MappingSolution& solution, RunContext& context,
                      RunReport& report) const override;

 private:
  ParallelSaOptions options_;
};

/// tabu — best-admissible local search with recency memory over the SA move
/// kernel (core/tabu_search.h); the registry's proof that a strategy is one
/// subclass plus one entry.
class TabuSearchOptimizer final : public Optimizer {
 public:
  explicit TabuSearchOptimizer(TabuOptions options = {});
  [[nodiscard]] std::string name() const override { return "tabu"; }
  [[nodiscard]] const TabuOptions& options() const { return options_; }

 protected:
  std::size_t improve(const SolutionEvaluator& evaluator,
                      MappingSolution& solution, RunContext& context,
                      RunReport& report) const override;

 private:
  TabuOptions options_;
};

/// Name -> optimizer factory. The built-in registry (AH, MH, SA, PSA, tabu)
/// is
/// what the CLI, the batch runner and the designer facade resolve against;
/// extensions register additional factories on their own instance or on a
/// copy of the built-in one.
class StrategyRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Optimizer>(const DesignerOptions&)>;

  StrategyRegistry() = default;

  /// Registers a factory; throws std::invalid_argument on a duplicate name.
  void add(std::string name, Factory factory);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Registered names in registration order (stable listing for the CLI).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Instantiates the named optimizer after validating `options`. Throws
  /// std::invalid_argument for an unknown name, listing the valid set.
  [[nodiscard]] std::unique_ptr<Optimizer> create(
      const std::string& name, const DesignerOptions& options = {}) const;

  /// The built-in registry with AH, MH, SA, PSA and tabu registered. The
  /// returned reference is to a process-wide constant; copy it to extend.
  static const StrategyRegistry& builtin();

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace ides
