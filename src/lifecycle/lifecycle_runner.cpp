#include "lifecycle/lifecycle_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sched/list_scheduler.h"
#include "sched/platform_state.h"
#include "tgen/graph_gen.h"
#include "tgen/profile_presets.h"
#include "util/json_reader.h"
#include "util/rng.h"

namespace ides {

namespace {

/// Per-step chain-seed stream of a lifecycle run (see rngStreamSeed),
/// fanned out per step index so every step explores an independent
/// proposal stream regardless of what earlier steps consumed.
constexpr std::uint64_t kStepSeedStream = 0x6c666353;  // "lfcS"

std::string d17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string d6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

const char* boolStr(bool b) { return b ? "true" : "false"; }

/// Committed placements of one living graph, keyed by LOCAL index within
/// the graph (process/message creation order). Local indexing survives
/// model rebuilds: the graph regenerates bit-identically from its spec
/// seed, so position k names the same process before and after a rebuild —
/// even though the global dense ids shifted with the live set.
struct GraphPlacement {
  std::vector<std::int32_t> nodes;  ///< by local process index
};

/// The spec's percent scaling applied to the base generator ranges. Range
/// scaling preserves the generator's draw pattern, so only the drawn
/// VALUES change — the topology and the allowed-node sets are invariant,
/// which is what keeps stored placements pinnable across spec changes.
GraphGenConfig scaledGraphGen(const ScenarioConfig& config,
                              const LifecycleGraphSpec& spec) {
  GraphGenConfig cfg = config.graphGen;
  cfg.processCount = spec.processCount;
  cfg.wcetMin = std::max<Time>(
      1, config.graphGen.wcetMin * spec.wcetScalePercent / 100);
  cfg.wcetMax = std::max(
      cfg.wcetMin, config.graphGen.wcetMax * spec.wcetScalePercent / 100);
  cfg.msgMin = std::max<std::int64_t>(
      1, config.graphGen.msgMin * spec.msgScalePercent / 100);
  cfg.msgMax = std::max(cfg.msgMin,
                        config.graphGen.msgMax * spec.msgScalePercent / 100);
  return cfg;
}

/// Warm seed: survivors pinned to their stored nodes, fresh graphs left
/// invalid, then ONE pinned-HCP pass over all graphs — the scheduler keeps
/// pinned entries and chooses earliest-finish nodes for the rest, deriving
/// hints consistent with the new model. Returns nullopt when the pinned
/// layout cannot even be placed (the caller cold-starts).
std::optional<MappingSolution> buildWarmSeed(
    const BuiltDesign& built, const LivingDesign& living,
    const std::map<std::uint64_t, GraphPlacement>& placements,
    const PlatformState& baseline) {
  const SystemModel& sys = built.system;
  MappingSolution seed(sys);
  for (std::size_t i = 0; i < living.graphs.size(); ++i) {
    const auto it = placements.find(living.graphs[i].uid);
    if (it == placements.end()) continue;  // fresh graph: HCP places it
    const GraphPlacement& p = it->second;
    const ProcessGraph& g = sys.graph(built.graphIds[i]);
    if (p.nodes.size() != g.processes.size()) {
      continue;  // stale shape: treat as fresh
    }
    bool pinnable = true;
    for (std::size_t k = 0; k < g.processes.size() && pinnable; ++k) {
      const NodeId node{p.nodes[k]};
      pinnable = node.valid() &&
                 static_cast<std::size_t>(node.index()) <
                     sys.architecture().nodeCount() &&
                 sys.process(g.processes[k]).allowedOn(node);
    }
    if (!pinnable) continue;
    // Nodes only, no stored hints: a hint is a schedule-order nudge tuned
    // against LAST step's timing, and restoring it after an event distorts
    // the list scheduler more the harder the previous step optimized. The
    // placement structure lives in the node assignment; the pinned-HCP
    // pass below derives fresh hints consistent with the new model.
    for (std::size_t k = 0; k < g.processes.size(); ++k) {
      seed.setNode(g.processes[k], NodeId{p.nodes[k]});
    }
  }

  PlatformState state = baseline;
  ScheduleRequest req;
  req.graphs = built.graphIds;
  req.mapping = &seed;
  req.chooseNodes = true;
  const ScheduleOutcome outcome = scheduleGraphs(sys, req, state);
  if (!outcome.placed) return std::nullopt;
  return outcome.mapping;
}

/// Store the committed mapping back as per-uid local placements (feasible
/// steps only; an infeasible step keeps the last committed design). Only
/// node assignments are kept — see buildWarmSeed on why hints are not.
void commitPlacements(const BuiltDesign& built, const LivingDesign& living,
                      const MappingSolution& mapping,
                      std::map<std::uint64_t, GraphPlacement>& placements) {
  for (std::size_t i = 0; i < living.graphs.size(); ++i) {
    const ProcessGraph& g = built.system.graph(built.graphIds[i]);
    GraphPlacement p;
    p.nodes.reserve(g.processes.size());
    for (const ProcessId pid : g.processes) {
      p.nodes.push_back(mapping.nodeOf(pid).value);
    }
    placements[living.graphs[i].uid] = std::move(p);
  }
}

}  // namespace

const char* toString(StartPolicy policy) {
  return policy == StartPolicy::Warm ? "warm" : "cold";
}

StartPolicy startPolicyFromString(std::string_view name) {
  if (name == "warm") return StartPolicy::Warm;
  if (name == "cold") return StartPolicy::Cold;
  throw std::invalid_argument("unknown start policy \"" + std::string(name) +
                              "\" (expected warm or cold)");
}

BuiltDesign buildDesignModel(const ScenarioConfig& config,
                             const LivingDesign& design) {
  if (design.graphs.empty()) {
    throw std::invalid_argument(
        "buildDesignModel: the living design has no graphs");
  }
  std::vector<double> speeds(design.speedPercents.size());
  for (std::size_t n = 0; n < speeds.size(); ++n) {
    speeds[n] = design.speedPercents[n] / 100.0;
  }
  // Snap the TDMA round against the smallest reachable hyperperiod
  // (basePeriod / max divisor): the divisor chain makes it divide every
  // possible live set's hyperperiod, so the architecture is identical at
  // every step no matter which periods are currently live.
  const std::vector<Time> slots =
      snapSlotLengths(config.nodeCount, config.slotLength,
                      config.basePeriod / config.periodDivisors.back());
  BuiltDesign built{
      SystemModel(
          makeUniformArchitecture(slots, config.bytesPerTick, speeds)),
      paperFutureProfile(config.tmin, config.tneed, config.bneedBytes),
      {}};
  built.graphIds.reserve(design.graphs.size());
  for (const LifecycleGraphSpec& spec : design.graphs) {
    const ApplicationId app = built.system.addApplication(
        "uid" + std::to_string(spec.uid), AppKind::Current);
    Rng rng(spec.seed);
    const GraphGenConfig cfg = scaledGraphGen(config, spec);
    built.graphIds.push_back(generateGraph(built.system, app, spec.period,
                                           spec.deadline, cfg, rng,
                                           spec.offset));
  }
  built.system.finalize();
  return built;
}

LifecycleReport runLifecycle(const LifecycleScenario& scenario,
                             const LifecycleOptions& options) {
  validateScenarioConfig(scenario.config);
  validateOptions(options.designer);
  requireStrategy(options.strategy);

  using Clock = std::chrono::steady_clock;
  const auto runStart = Clock::now();

  LifecycleReport report;
  report.strategy = options.strategy;
  report.policy = options.policy;
  report.scenarioSeed = scenario.config.seed;
  report.steps.reserve(scenario.events.size());

  LivingDesign living = initialDesign(scenario.config);
  std::map<std::uint64_t, GraphPlacement> placements;
  const std::uint64_t stepSeedBase =
      rngStreamSeed(options.designer.sa.seed, kStepSeedStream);

  for (std::size_t s = 0; s < scenario.events.size(); ++s) {
    if (options.stop != nullptr && options.stop->stopRequested()) {
      report.stopped = true;
      break;
    }
    const LifecycleEvent& event = scenario.events[s];
    applyEvent(living, event);
    if (event.kind == LifecycleEventKind::RemoveGraph) {
      placements.erase(event.uid);
    }

    const auto stepStart = Clock::now();
    const TraceSpan stepSpan(
        "lifecycle:step" + std::to_string(s) + ":" + toString(event.kind),
        "lifecycle");
    const BuiltDesign built = buildDesignModel(scenario.config, living);
    const SystemModel& sys = built.system;

    DesignerOptions stepOptions = options.designer;
    const std::uint64_t stepSeed = rngStreamSeed(stepSeedBase, s);
    stepOptions.sa.seed = stepSeed;
    stepOptions.tabu.seed = stepSeed;

    // Every living graph is Current, so the frozen baseline is the empty
    // platform — lifecycle freezes nothing; continuity comes from the warm
    // seed, not from frozen occupancy.
    SolutionEvaluator evaluator(
        sys, PlatformState(sys.architecture(), sys.hyperperiod()),
        built.profile, stepOptions.weights);

    std::optional<MappingSolution> warmSeed;
    if (options.policy == StartPolicy::Warm) {
      warmSeed =
          buildWarmSeed(built, living, placements, evaluator.baseline());
    }

    StopToken stepStop;
    const bool hasDeadline = options.stepDeadlineSeconds > 0.0;
    if (hasDeadline) stepStop.setTimeout(options.stepDeadlineSeconds);
    RunContext context;
    context.stop = hasDeadline ? &stepStop : options.stop;
    bool warmAccepted = false;
    context.progress = [&](const ProgressEvent& ev) {
      if (ev.phase == "warm-start") warmAccepted = true;
      if (options.progress) options.progress(ev);
    };

    const RunReport run =
        runStrategy(options.strategy, stepOptions, evaluator, context,
                    warmSeed ? &*warmSeed : nullptr);

    LifecycleStep step;
    step.step = static_cast<int>(s);
    step.event = event.kind;
    step.uid =
        event.kind == LifecycleEventKind::PlatformPerturb ? 0 : event.uid;
    step.liveGraphs = living.graphs.size();
    step.liveProcesses = living.totalProcesses();
    step.warmStart = warmAccepted;
    step.feasible = run.feasible;
    step.cost = run.objective;
    step.evaluations = run.evaluations;
    step.proposals = run.proposals;
    step.accepted = run.accepted;
    step.zeroDeltaSkips = run.zeroDeltaSkips;
    step.stopped = run.stopped;
    step.seconds =
        std::chrono::duration<double>(Clock::now() - stepStart).count();
    if (telemetryEnabled()) {
      telemetry()
          .histogram("ides_lifecycle_step_seconds",
                     "Wall time of one lifecycle event's re-optimization",
                     {0.01, 0.05, 0.2, 1.0, 5.0, 30.0, 120.0})
          .observe(step.seconds);
    }
    report.steps.push_back(step);

    if (warmAccepted) ++report.warmStarts;
    if (run.feasible) {
      ++report.feasibleSteps;
      commitPlacements(built, living, run.mapping, placements);
    }
  }

  std::vector<double> costs;
  costs.reserve(report.feasibleSteps);
  for (const LifecycleStep& step : report.steps) {
    if (step.feasible) costs.push_back(step.cost);
  }
  if (!costs.empty()) {
    std::sort(costs.begin(), costs.end());
    const std::size_t mid = costs.size() / 2;
    report.medianCost = costs.size() % 2 == 1
                            ? costs[mid]
                            : (costs[mid - 1] + costs[mid]) / 2.0;
  }
  report.totalSeconds =
      std::chrono::duration<double>(Clock::now() - runStart).count();
  return report;
}

std::string lifecycleReportJson(const LifecycleReport& report, bool timing) {
  std::string out = "{\n";
  out += "  \"schema\": 1,\n";
  out += "  \"kind\": \"lifecycle_report\",\n";
  out += "  \"strategy\": " + jsonQuote(report.strategy) + ",\n";
  out += "  \"policy\": " + jsonQuote(toString(report.policy)) + ",\n";
  out += "  \"scenario_seed\": \"" +
         std::to_string(
             static_cast<unsigned long long>(report.scenarioSeed)) +
         "\",\n";
  out += "  \"steps\": [";
  for (std::size_t i = 0; i < report.steps.size(); ++i) {
    const LifecycleStep& s = report.steps[i];
    out += (i == 0 ? "" : ",");
    out += "\n    {\"step\": " + std::to_string(s.step);
    out += ", \"event\": " + jsonQuote(toString(s.event));
    out += ", \"uid\": " + std::to_string(s.uid);
    out += ", \"live_graphs\": " + std::to_string(s.liveGraphs);
    out += ", \"live_processes\": " + std::to_string(s.liveProcesses);
    out += ", \"warm_start\": ";
    out += boolStr(s.warmStart);
    out += ", \"feasible\": ";
    out += boolStr(s.feasible);
    out += ", \"cost\": " + d17(s.cost);
    out += ", \"evaluations\": " + std::to_string(s.evaluations);
    out += ", \"proposals\": " + std::to_string(s.proposals);
    out += ", \"accepted\": " + std::to_string(s.accepted);
    out += ", \"zero_delta_skips\": " + std::to_string(s.zeroDeltaSkips);
    out += ", \"stopped\": ";
    out += boolStr(s.stopped);
    if (timing) out += ", \"seconds\": " + d6(s.seconds);
    out += "}";
  }
  out += "\n  ],\n";
  out += "  \"summary\": {\n";
  out += "    \"steps\": " + std::to_string(report.steps.size()) + ",\n";
  out += "    \"feasible_steps\": " + std::to_string(report.feasibleSteps) +
         ",\n";
  out += "    \"warm_starts\": " + std::to_string(report.warmStarts) + ",\n";
  out += "    \"median_cost\": " + d17(report.medianCost) + ",\n";
  if (timing) {
    out += "    \"total_seconds\": " + d6(report.totalSeconds) + ",\n";
  }
  out += "    \"stopped\": ";
  out += boolStr(report.stopped);
  out += "\n  }\n}\n";
  return out;
}

}  // namespace ides
