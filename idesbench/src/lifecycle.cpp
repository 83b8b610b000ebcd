// lifecycle — closed loop, one caller: runLifecycle over generated 50-event
// scenarios with the warm policy, SA at a small fixed per-step budget and
// MH. Many short re-optimizations of small designs: per-event model
// rebuild, evaluator construction and warm-seed validation are a large
// share of each step.
#include "bench.h"
#include "lifecycle/lifecycle_runner.h"
#include "spans.h"
#include "stats.h"

namespace idesbench {

namespace {

/// Speed-kernel runs before each scenario run, while nothing else runs.
constexpr int kKernelRunsPerScenario = 3;

ides::LifecycleOptions stepOptions(const std::string& strategy,
                                   std::uint64_t chainSeed) {
  ides::LifecycleOptions options;
  options.strategy = strategy;
  options.policy = ides::StartPolicy::Warm;
  options.designer.sa.iterations = kLifecycleSaIterations;
  options.designer.sa.seed = chainSeed;
  return options;
}

}  // namespace

void runLifecycleWorkload(const Config& cfg, const LifecyclePlan& plan,
                          Report& report, OpLog& log) {
  // Set-up: generate every scenario, check that it round-trips through its
  // JSON form (parseScenario replays every event against the design), and
  // that the design model builds after every event. Generation alone takes
  // well under a millisecond, too little to time steadily between runs.
  // The scenarios are a fixed suite (scenario seeds 1..n) and the run seed
  // drives every optimizer chain: a scenario's live-set trajectory sets its
  // step cost, and with scenario seeds drawn from the run seed the median
  // step time spread 37% between runs of four scenarios.
  std::vector<ides::LifecycleScenario> scenarios;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    scenarios.clear();
    const Clock::time_point t0 = Clock::now();
    for (int s = 0; s < plan.scenarios; ++s) {
      ides::ScenarioConfig config;
      config.seed = static_cast<std::uint64_t>(s + 1);
      config.steps = plan.steps;
      scenarios.push_back(ides::generateScenario(config));
      const bool roundTrips =
          ides::parseScenario(ides::scenarioJson(scenarios.back())) ==
          scenarios.back();
      bool builds = true;
      ides::LivingDesign living = ides::initialDesign(config);
      for (const ides::LifecycleEvent& event : scenarios.back().events) {
        ides::applyEvent(living, event);
        builds = builds &&
                 !ides::buildDesignModel(config, living).system.graphs().empty();
      }
      if (rep == 0) {
        report.check(roundTrips, "scenario " + std::to_string(s) +
                                     " does not round-trip");
        report.check(builds, "scenario " + std::to_string(s) +
                                 " leaves an empty design");
      }
    }
    log.recordSetup(secondsSince(t0));
  }

  const std::vector<std::string> strategies{"SA", "MH"};
  std::map<std::string, std::string> firstJson;
  std::map<std::string, double> costOf;
  Ratio warm;
  std::vector<double> allOptimizeMs;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    bool stop = false;
    for (std::size_t s = 0; s < scenarios.size() && !stop; ++s) {
      for (const std::string& strategy : strategies) {
        if (round > 0 && secondsSince(start) >= plan.seconds) {
          stop = true;
          break;
        }
        const std::string key = "s" + std::to_string(s) + "/" + strategy;
        log.sampleSpeed(kKernelRunsPerScenario);
        ides::LifecycleOptions options =
            stepOptions(strategy, deriveSeed(cfg.seed, 4000 + s));
        // Per-step optimizer time, from the optimizer's own phase events:
        // warm-start (or initial-mapping) opens it, final closes it.
        Clock::time_point optStart = Clock::now();
        std::vector<double> optimizeMs;
        if (spans().enabled()) {
          options.progress = [&](const ides::ProgressEvent& ev) {
            if (ev.phase == "warm-start" || ev.phase == "initial-mapping") {
              optStart = Clock::now();
            } else if (ev.phase == "final") {
              optimizeMs.push_back(msSince(optStart));
            }
          };
        }
        ides::LifecycleReport run;
        try {
          const Span span("lifecycle.run");
          run = ides::runLifecycle(scenarios[s], options);
        } catch (const std::exception& e) {
          report.attempt();
          report.fail(key + ": " + e.what());
          continue;
        }
        for (const ides::LifecycleStep& step : run.steps) {
          report.attempt();
          const std::string stepKey = key + "/" + std::to_string(step.step);
          if (!step.feasible || step.stopped) {
            report.fail(stepKey + ": infeasible step");
            continue;
          }
          log.record(stepKey, strategy, step.seconds * 1000.0);
        }
        const std::string json = ides::lifecycleReportJson(run);
        const auto [it, fresh] = firstJson.emplace(key, json);
        report.check(fresh || it->second == json,
                     key + ": lifecycle report differs between repeats");
        costOf[key] = run.medianCost;
        warm.part += static_cast<double>(run.warmStarts);
        warm.base += static_cast<double>(run.steps.size());
        allOptimizeMs.insert(allOptimizeMs.end(), optimizeMs.begin(),
                             optimizeMs.end());
      }
    }
    if (!stop) {
      log.roundOps = log.completed;
      log.roundSeconds = secondsSince(start) - log.kernelSeconds;
    }
    if (stop || plan.seconds <= 0.0) break;
  }
  for (const auto& [key, cost] : costOf) log.objectives.push_back(cost);
  log.peakRssMb = selfPeakRssMb();

  if (!spans().enabled()) return;
  // Model rebuild per event, replayed outside the runner on the first
  // scenario: applyEvent then buildDesignModel, as every step does.
  std::vector<double> rebuildMs;
  ides::LivingDesign living = ides::initialDesign(scenarios.front().config);
  for (const ides::LifecycleEvent& event : scenarios.front().events) {
    ides::applyEvent(living, event);
    const Span span("lifecycle.rebuild");
    const Clock::time_point t0 = Clock::now();
    const ides::BuiltDesign built =
        ides::buildDesignModel(scenarios.front().config, living);
    rebuildMs.push_back(msSince(t0));
  }
  report.metric("lifecycle.rebuild_ms", median(rebuildMs), "ms",
                rebuildMs.size());
  report.metric("lifecycle.optimize_ms", median(allOptimizeMs), "ms",
                allOptimizeMs.size());
  report.metric("lifecycle.warm_ratio", warm.value(), "ratio",
                static_cast<std::size_t>(warm.base));
  report.metric("lifecycle.steps", warm.base, "count",
                static_cast<std::size_t>(warm.base));
}

}  // namespace idesbench
