// sweep — closed loop, shards = cores: runBatch over the quality paper
// sweep (sizes x seeds x {AH, MH, SA}) with generator and chain seeds drawn
// from the run seed, every record written to a fresh SweepStore through
// SweepStoreCache. Throughput-bound with every core busy, plus one store
// write per instance.
#include <filesystem>
#include <set>

#include "bench.h"
#include "core/batch_suites.h"
#include "spans.h"
#include "stats.h"
#include "store/sweep_store.h"

namespace idesbench {

namespace {

/// Speed-kernel runs before each pass, while no shard runs (see speed.h).
constexpr int kKernelRunsPerPass = 15;

/// The quality paper sweep on its own fixed instances, with every SA chain
/// seed drawn from the run seed. The instances stay fixed because they ARE
/// the figure's input, and because 3 generator seeds per size are too few
/// to average out instance difficulty: with generator seeds drawn from the
/// run seed, instances per second spread 11% and the median instance time
/// 61% between runs.
ides::InstanceSuite seededQualitySweep(std::uint64_t seed,
                                       const std::string& scale) {
  const ides::InstanceSuite base =
      ides::qualitySweep(ides::sweepScaleNamed(scale));
  ides::InstanceSuite suite(base.name());
  for (ides::BatchInstance inst : base.instances()) {
    inst.options.sa.seed = deriveSeed(seed, 3000 + inst.options.sa.seed);
    suite.add(std::move(inst));
  }
  return suite;
}

}  // namespace

void runSweep(const Config& cfg, const SweepPlan& plan, Report& report,
              OpLog& log) {
  namespace fs = std::filesystem;
  // Set-up: build the instance list, generate each distinct system once to
  // check that it builds, and create the store.
  ides::InstanceSuite suite("");
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    suite = seededQualitySweep(cfg.seed, plan.scale);
    std::set<std::pair<std::size_t, std::uint64_t>> built;
    for (const ides::BatchInstance& inst : suite.instances()) {
      if (!built.emplace(inst.config.currentProcesses, inst.suiteSeed).second) {
        continue;
      }
      const Span span("tgen.build_suite");
      (void)ides::buildSuite(inst.config, inst.suiteSeed);
    }
    const ides::SweepStore store(cfg.workDir + "/sweep-setup");
    log.recordSetup(secondsSince(t0));
    fs::remove_all(cfg.workDir + "/sweep-setup");
  }

  std::string firstJson;
  std::vector<double> busySeconds;
  std::vector<double> passSeconds;
  std::map<std::string, double> objectiveOf;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass == 0 || secondsSince(start) < plan.seconds;
       ++pass) {
    log.sampleSpeed(kKernelRunsPerPass);
    const std::string dir = cfg.workDir + "/sweep-store-" + std::to_string(pass);
    ides::SweepStore store(dir);
    ides::SweepStoreCache cache(store, suite.name(), /*reuse=*/true);
    double busy = 0.0;
    ides::BatchOptions options;
    options.shards = cfg.threads;
    options.cache = &cache;
    options.onInstanceDone = [&](const ides::InstanceResult& r) {
      report.attempt();
      const ides::RunReport& run = r.outcome.report;
      busy += run.seconds;
      if (!run.feasible) {
        report.fail(r.id + ": infeasible");
        return;
      }
      log.record(r.id, run.strategy, run.seconds * 1000.0);
      objectiveOf[r.id] = run.objective;
    };
    const Clock::time_point t0 = Clock::now();
    ides::BatchReport batch;
    try {
      const Span span("core.batch");
      batch = ides::runBatch(suite, options);
    } catch (const std::exception& e) {
      report.fail(std::string("runBatch: ") + e.what());
      break;
    }
    passSeconds.push_back(secondsSince(t0));
    busySeconds.push_back(busy);
    report.check(cache.stored() == suite.size(),
                 "store kept " + std::to_string(cache.stored()) + " of " +
                     std::to_string(suite.size()) + " records");
    ides::BatchJsonOptions json;
    json.timing = false;
    const std::string rendered = ides::batchReportJson("sweep", batch, json);
    if (pass == 0) firstJson = rendered;
    report.check(rendered == firstJson,
                 "batch report differs between passes");
    fs::remove_all(dir);
    log.roundOps = log.completed;
    log.roundSeconds = secondsSince(start) - log.kernelSeconds;
  }
  for (const auto& [id, objective] : objectiveOf) {
    log.objectives.push_back(objective);
  }
  log.peakRssMb = selfPeakRssMb();

  if (spans().enabled()) {
    // core.batch.busy_frac: instance seconds over (shards x pass wall).
    double busy = 0.0;
    double wall = 0.0;
    for (std::size_t i = 0; i < passSeconds.size(); ++i) {
      busy += busySeconds[i];
      wall += passSeconds[i] * cfg.threads;
    }
    std::vector<double> instanceMs;
    for (const auto& [id, repeats] : log.latencyMs) {
      instanceMs.insert(instanceMs.end(), repeats.begin(), repeats.end());
    }
    report.metric("core.batch.instance_ms", median(instanceMs), "ms",
                  instanceMs.size());
    report.metric("core.batch.busy_frac", Ratio{busy, wall}.value(), "ratio",
                  passSeconds.size());
  }
}

}  // namespace idesbench
