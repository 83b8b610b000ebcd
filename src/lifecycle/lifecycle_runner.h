// Lifecycle replay: apply each scenario event to the living design and
// re-optimize, measuring quality-vs-latency over the whole stream.
//
// The SystemModel is frozen after finalize() (dense global ids, derived
// structures), so the runner never mutates a model in place: it keeps the
// LivingDesign spec state and REBUILDS the model after every event. Each
// graph spec carries its own generation seed, so unchanged graphs rebuild
// bit-identically no matter which siblings were added or removed — the
// model-rebuild is semantically "remove graph / add graph" on the living
// design, at spec granularity.
//
// Warm vs cold start (the experiment the subsystem exists to run): under
// the warm policy the previous step's committed placements seed the new
// run — surviving graphs are pinned to their old nodes (schedule hints are
// deliberately re-derived, not restored: a hint tuned against last step's
// timing distorts the list scheduler after an event), removed graphs are
// simply unmapped (their placements dropped), and added graphs are placed
// by the initial-mapping heuristic (pinned-HCP) on top. Each step is one
// runStrategy call (core/optimizer.h), which validates the seed and falls
// back to a cold Initial Mapping when it no longer schedules feasibly
// (e.g. after a hard platform perturbation). Under the cold policy every
// step restarts from IM.
//
// Determinism: with the per-step wall-clock deadline off, a LifecycleReport
// is a pure function of (scenario, strategy, policy, designer options) —
// lifecycleReportJson(report, timing=false) renders byte-identical across
// runs and worker counts, the same discipline as batchReportJson. The
// per-step deadline (StopToken timeout) is the one intentionally
// non-deterministic knob, for quality-at-deadline measurements; fixed
// per-step iteration budgets are the deterministic stand-in used by tests
// and CI.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/future_profile.h"
#include "core/optimizer.h"
#include "lifecycle/lifecycle_scenario.h"
#include "model/system_model.h"
#include "util/stop_token.h"

namespace ides {

/// A living design materialized as a schedulable model: every graph is one
/// AppKind::Current application (all movable), in living order — which is
/// therefore also the evaluator's deterministic scheduling order.
struct BuiltDesign {
  SystemModel system;
  FutureProfile profile;
  /// Graph id per living spec, parallel to LivingDesign::graphs.
  std::vector<GraphId> graphIds;
};

/// Rebuilds the model for the current living design (throws
/// std::invalid_argument when the design has no graphs). The TDMA round is
/// snapped against the smallest reachable hyperperiod (basePeriod /
/// max divisor), so it divides the hyperperiod of every possible live set.
[[nodiscard]] BuiltDesign buildDesignModel(const ScenarioConfig& config,
                                           const LivingDesign& design);

enum class StartPolicy : std::uint8_t { Warm, Cold };
[[nodiscard]] const char* toString(StartPolicy policy);
/// Parses "warm" / "cold"; throws std::invalid_argument otherwise.
[[nodiscard]] StartPolicy startPolicyFromString(std::string_view name);

struct LifecycleOptions {
  std::string strategy = "SA";
  StartPolicy policy = StartPolicy::Warm;
  /// Per-step budgets and weights. The per-step chain seed is derived
  /// deterministically from designer.sa.seed (and .tabu.seed) and the step
  /// index, so steps explore independent streams.
  DesignerOptions designer;
  /// Per-step wall-clock deadline in seconds (0 = off). Intentionally
  /// non-deterministic when it fires; leave off for byte-identity.
  double stepDeadlineSeconds = 0.0;
  /// Whole-run cancellation, polled between steps; a fired token truncates
  /// the report (LifecycleReport::stopped) without tainting finished steps.
  const StopToken* stop = nullptr;
  /// Step-boundary progress (also forwarded into each optimizer run).
  ProgressSink progress;
};

/// One re-optimization step, after applying one event.
struct LifecycleStep {
  int step = 0;
  LifecycleEventKind event = LifecycleEventKind::AddGraph;
  std::uint64_t uid = 0;  ///< event target (0 for platform perturbations)
  std::size_t liveGraphs = 0;
  std::size_t liveProcesses = 0;
  /// Warm policy only: a warm seed was constructed AND accepted by the
  /// optimizer (false = cold fallback, e.g. the restored placements no
  /// longer schedule feasibly on the perturbed platform).
  bool warmStart = false;
  bool feasible = false;
  /// Final cost (objective C when feasible, penalty cost otherwise).
  double cost = 0.0;
  std::size_t evaluations = 0;
  std::size_t proposals = 0;
  std::size_t accepted = 0;
  std::size_t zeroDeltaSkips = 0;
  bool stopped = false;   ///< the per-step deadline fired mid-run
  double seconds = 0.0;   ///< wall clock (timing-only; excluded from
                          ///< deterministic rendering)
};

struct LifecycleReport {
  std::string strategy;
  StartPolicy policy = StartPolicy::Warm;
  std::uint64_t scenarioSeed = 0;
  std::vector<LifecycleStep> steps;
  std::size_t feasibleSteps = 0;
  std::size_t warmStarts = 0;  ///< steps the warm seed was accepted
  /// Median final cost over feasible steps (0 when none) — the
  /// quality-at-deadline summary the warm-vs-cold comparison reads.
  double medianCost = 0.0;
  double totalSeconds = 0.0;
  bool stopped = false;  ///< LifecycleOptions::stop truncated the stream
};

/// Replays the scenario, re-optimizing after every event.
[[nodiscard]] LifecycleReport runLifecycle(const LifecycleScenario& scenario,
                                           const LifecycleOptions& options);

/// Deterministic JSON rendering: with `timing` off the bytes are a pure
/// function of the report's deterministic fields (no seconds), identical
/// across runs and worker counts for the same (scenario, options).
[[nodiscard]] std::string lifecycleReportJson(const LifecycleReport& report,
                                              bool timing = false);

}  // namespace ides
