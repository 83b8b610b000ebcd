#include "core/batch_suites.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/future_fit.h"
#include "core/incremental_designer.h"
#include "core/multi_increment.h"
#include "model/system_model.h"
#include "util/hashing.h"

namespace ides {

namespace {

std::string sizeGroup(std::size_t size) {
  // += instead of chained + : avoids GCC's bogus -Wrestrict (PR105651).
  std::string group = "n";
  group += std::to_string(size);
  return group;
}

std::string instanceId(const std::string& group, int seed,
                       const std::string& strategy) {
  return group + "/s" + std::to_string(seed) + "/" + strategy;
}

/// The future-fit probe of figures F3/A2: commit the reported mapping on
/// the baseline and count the embedded future applications that still map.
void futureFitProbe(const IncrementalDesigner& designer,
                    const RunReport& report, BatchExtras& extras) {
  double fits = 0.0, samples = 0.0;
  if (report.feasible) {
    const SystemModel& sys = designer.system();
    const PlatformState after = designer.stateWith(report);
    for (const ApplicationId app : sys.applicationsOfKind(AppKind::Future)) {
      fits += tryMapFutureApplication(sys, app, after).fits ? 1 : 0;
      samples += 1;
    }
  }
  extras.add("future_fit", fits);
  extras.add("future_samples", samples);
}

/// One figure-style sweep: sizes × seeds × strategies on paperSuiteConfig.
InstanceSuite figureSweep(std::string name, const SweepScale& scale,
                          const std::vector<std::size_t>& sizes,
                          const std::vector<std::string>& strategies,
                          std::uint64_t suiteSeedBase,
                          std::size_t futureApps, BatchProbe probe) {
  InstanceSuite suite(std::move(name));
  for (const std::size_t size : sizes) {
    for (int s = 0; s < scale.seeds; ++s) {
      for (const std::string& strategy : strategies) {
        BatchInstance instance;
        instance.group = sizeGroup(size);
        instance.id = instanceId(instance.group, s, strategy);
        instance.axis = static_cast<double>(size);
        instance.seedIndex = s;
        instance.suiteSeed = suiteSeedBase + static_cast<std::uint64_t>(s);
        instance.config = paperSuiteConfig(size, futureApps);
        instance.strategy = strategy;
        instance.options = sweepDesignerOptions(
            scale, static_cast<std::uint64_t>(s) + 1);
        instance.probe = probe;
        suite.add(std::move(instance));
      }
    }
  }
  return suite;
}

}  // namespace

SweepScale sweepScaleNamed(const std::string& name) {
  if (name == "default") return {};
  if (name == "smoke") return {"smoke", 1, 4000, {40, 160, 320}, 3};
  if (name == "full") return {"full", 5, 30000, {40, 80, 160, 240, 320}, 10};
  throw std::invalid_argument("unknown scale \"" + name +
                              "\" (available: smoke, default, full)");
}

SweepScale sweepScale() {
  // The env knob stays lenient (legacy benchScale behavior): anything not
  // recognized runs the default scale. Explicit --scale goes through the
  // strict sweepScaleNamed instead.
  const char* env = std::getenv("IDES_BENCH_SCALE");
  const std::string name = env == nullptr ? "default" : env;
  if (name == "smoke" || name == "full") return sweepScaleNamed(name);
  return {};
}

SuiteConfig paperSuiteConfig(std::size_t current, std::size_t futureApps) {
  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = current;
  cfg.futureAppCount = futureApps;
  cfg.futureProcesses = 80;
  cfg.tneedOverride = 12000;
  return cfg;
}

DesignerOptions sweepDesignerOptions(const SweepScale& scale,
                                     std::uint64_t saSeed) {
  DesignerOptions opts;
  opts.sa.iterations = scale.saIterations;
  opts.sa.seed = saSeed;
  return opts;
}

InstanceSuite qualitySweep(const SweepScale& scale) {
  return figureSweep("fig-quality", scale, scale.sizes, {"AH", "MH", "SA"},
                     1000, 0, nullptr);
}

InstanceSuite runtimeSweep(const SweepScale& scale) {
  return figureSweep("fig-runtime", scale, scale.sizes, {"AH", "MH", "SA"},
                     2000, 0, nullptr);
}

InstanceSuite futureSweep(const SweepScale& scale) {
  // The paper's third figure sweeps 40..240; 240 (where naive mapping
  // starts to destroy extensibility) is always included.
  std::vector<std::size_t> sizes;
  for (const std::size_t n : scale.sizes) {
    if (n < 240) sizes.push_back(n);
  }
  sizes.push_back(240);
  return figureSweep("fig-future", scale, sizes, {"AH", "MH"}, 3000,
                     scale.futureAppsPerInstance, futureFitProbe);
}

InstanceSuite weightsSweep(const SweepScale& scale) {
  struct WeightCase {
    const char* name;
    MetricWeights weights;
  };
  // DESIGN.md's defaults are w1 = 1, w2 = 2; the ablation spans dropping
  // C2 entirely up to weighting it 8x.
  const std::vector<WeightCase> cases = {
      {"C1-only (w2=0)", {1.0, 1.0, 0.0, 0.0}},
      {"balanced (w2=1)", {1.0, 1.0, 1.0, 1.0}},
      {"default (w2=2)", {1.0, 1.0, 2.0, 2.0}},
      {"C2-heavy (w2=8)", {1.0, 1.0, 8.0, 8.0}},
  };

  const std::size_t size = 240;
  InstanceSuite suite("ablation-weights");
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (int s = 0; s < scale.seeds; ++s) {
      BatchInstance instance;
      instance.group = cases[c].name;
      std::string caseKey = "w";  // += avoids GCC -Wrestrict (PR105651)
      caseKey += std::to_string(c);
      instance.id = instanceId(caseKey, s, "MH");
      instance.axis = static_cast<double>(c);
      instance.seedIndex = s;
      instance.suiteSeed = 5000 + static_cast<std::uint64_t>(s);
      instance.config = paperSuiteConfig(size, scale.futureAppsPerInstance);
      instance.strategy = "MH";
      instance.options = sweepDesignerOptions(scale);
      instance.options.weights = cases[c].weights;
      instance.probe = futureFitProbe;
      suite.add(std::move(instance));
    }
  }
  return suite;
}

InstanceSuite incrementsSweep(const SweepScale& scale) {
  // The E-INC platform: small and saturable, so the lifetime differences
  // show within a few increments (see bench_ext_increments for the
  // experimental rationale).
  SuiteConfig cfg;
  cfg.nodeCount = 4;
  cfg.basePeriod = 6000;
  cfg.tmin = 3000;
  cfg.existingProcesses = 40;
  cfg.currentProcesses = 16;
  cfg.futureAppCount = 8;  // the queue of version N+1, N+2, ...
  cfg.futureProcesses = 16;
  cfg.futureGraphSize = 16;
  cfg.tneedOverride = 2 * 16 * 69;

  InstanceSuite suite("ext-increments");
  for (int s = 0; s < scale.seeds; ++s) {
    for (const std::string& policy : {std::string("AH"), std::string("MH")}) {
      BatchInstance instance;
      instance.group = policy;
      instance.id = instanceId("inc", s, policy);
      instance.axis = static_cast<double>(s);
      instance.seedIndex = s;
      instance.suiteSeed = 7000 + static_cast<std::uint64_t>(s);
      instance.config = cfg;
      instance.strategy = policy;
      instance.job = [](const BatchInstance& inst,
                        const StopToken* stop) -> InstanceOutcome {
        const Suite generated = buildSuite(inst.config, inst.suiteSeed);
        std::vector<ApplicationId> queue =
            generated.system.applicationsOfKind(AppKind::Current);
        const auto futures =
            generated.system.applicationsOfKind(AppKind::Future);
        queue.insert(queue.end(), futures.begin(), futures.end());

        MultiIncrementOptions options;
        options.strategy = inst.strategy;
        options.designer = inst.options;
        options.stop = stop;
        const MultiIncrementResult result = runIncrementSequence(
            generated.system, generated.profile, queue, options);

        InstanceOutcome outcome;
        outcome.hasReport = false;
        outcome.extras.add("accepted",
                           static_cast<double>(result.accepted));
        outcome.extras.add("queue", static_cast<double>(queue.size()));
        // Cancelled lifetimes are shorter, not degraded (the sequence
        // never commits a cut-short increment); mark them so the record
        // is not mistaken for a full run.
        outcome.extras.add("run_stopped", result.stopped ? 1.0 : 0.0);
        return outcome;
      };
      suite.add(std::move(instance));
    }
  }
  return suite;
}

namespace {

void hashSuiteConfig(Fnv1aHasher& h, const SuiteConfig& cfg) {
  h.u64(cfg.nodeCount);
  h.u64(cfg.speedFactors.size());
  for (const double f : cfg.speedFactors) h.f64(f);
  h.i64(cfg.slotLength);
  h.i64(cfg.bytesPerTick);
  h.i64(cfg.basePeriod);
  h.u64(cfg.periodDivisors.size());
  for (const Time d : cfg.periodDivisors) h.i64(d);
  h.i64(cfg.tmin);
  h.u64(cfg.existingProcesses);
  h.u64(cfg.existingGraphSize);
  h.u64(cfg.offsetPhases);
  h.u64(cfg.currentProcesses);
  h.u64(cfg.currentGraphSize);
  h.u64(cfg.futureAppCount);
  h.u64(cfg.futureProcesses);
  h.u64(cfg.futureGraphSize);
  const GraphGenConfig& gen = cfg.graphGen;
  h.u64(gen.processCount);
  h.f64(gen.edgeDensity);
  h.u64(gen.layerWidth);
  h.i64(gen.wcetMin);
  h.i64(gen.wcetMax);
  h.f64(gen.wcetNodeVariation);
  h.f64(gen.restrictedMappingProb);
  h.f64(gen.restrictedFraction);
  h.i64(gen.msgMin);
  h.i64(gen.msgMax);
  h.i64(cfg.tneedOverride);
  h.i64(cfg.bneedOverride);
  // maxBuildAttempts IS result-relevant: a config that needs retries lands
  // on a different derived seed when the cap moves the retry sequence.
  h.i64(cfg.maxBuildAttempts);
}

void hashDesignerOptions(Fnv1aHasher& h, const DesignerOptions& opts) {
  h.f64(opts.weights.w1p);
  h.f64(opts.weights.w1m);
  h.f64(opts.weights.w2p);
  h.f64(opts.weights.w2m);
  h.i64(opts.mh.maxIterations);
  h.i64(opts.mh.candidateProcesses);
  h.i64(opts.mh.targetNodes);
  h.i64(opts.mh.gapsPerNode);
  h.i64(opts.mh.candidateMessages);
  h.i64(opts.mh.busWindows);
  h.u64(opts.mh.maxEvaluations);
  h.u64(opts.sa.seed);
  h.i64(opts.sa.iterations);
  h.f64(opts.sa.initialTempFactor);
  h.f64(opts.sa.finalTemp);
  h.f64(opts.sa.probRemap);
  h.f64(opts.sa.probProcessHint);
  h.i64(opts.psa.restarts);
  h.i64(opts.psa.perChainIterations);
  h.u64(opts.tabu.seed);
  h.i64(opts.tabu.iterations);
  h.i64(opts.tabu.candidates);
  h.i64(opts.tabu.tenure);
  h.f64(opts.tabu.probRemap);
  h.f64(opts.tabu.probProcessHint);
  // Excluded by design (bit-identical results across all values, asserted
  // by the optimizer/speculation test suites): sa.recordCostTrace,
  // sa.speculation.workers, psa.threads, psa.speculativeWorkers, and the
  // stop tokens.
}

}  // namespace

std::string instanceFingerprint(const std::string& suiteName,
                                const BatchInstance& instance) {
  // Two independently-seeded FNV lanes over the same field stream give the
  // 128-bit content address; see util/hashing.h.
  Fnv1aHasher lanes[2] = {Fnv1aHasher(Fnv1aHasher::kDefaultBasis),
                          Fnv1aHasher(0x9e3779b97f4a7c15ULL)};
  for (Fnv1aHasher& h : lanes) {
    h.u64(kSweepFingerprintEpoch);
    h.str(suiteName);
    h.str(instance.id);
    h.str(instance.group);
    h.f64(instance.axis);
    h.i64(instance.seedIndex);
    h.u64(instance.suiteSeed);
    hashSuiteConfig(h, instance.config);
    h.str(instance.strategy);
    hashDesignerOptions(h, instance.options);
    h.boolean(static_cast<bool>(instance.probe));
    h.boolean(static_cast<bool>(instance.job));
  }
  return hashHex(lanes[0].value(), lanes[1].value());
}

std::vector<std::string> sweepNames() {
  return {"quality", "runtime", "future", "weights", "increments"};
}

InstanceSuite namedSweep(const std::string& name, const SweepScale& scale) {
  if (name == "quality") return qualitySweep(scale);
  if (name == "runtime") return runtimeSweep(scale);
  if (name == "future") return futureSweep(scale);
  if (name == "weights") return weightsSweep(scale);
  if (name == "increments") return incrementsSweep(scale);
  std::string known;
  for (const std::string& n : sweepNames()) {
    known += known.empty() ? n : ", " + n;
  }
  throw std::invalid_argument("unknown sweep \"" + name +
                              "\" (available: " + known + ")");
}

}  // namespace ides
