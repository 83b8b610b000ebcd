#include "core/batch_suites.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/future_fit.h"
#include "core/incremental_designer.h"
#include "core/multi_increment.h"
#include "model/system_model.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/hashing.h"
#include "util/stats.h"

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
  // show within a few increments (the rationale is at the declaration).
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

namespace {

// ---- Figures -------------------------------------------------------------

/// What every figure shares: the report's points (the first instance of
/// each group: a size, a weight case or a policy) and seeds in canonical
/// order, a lookup of the instances that ran, and the text so far. An
/// instance that did not run still names its point and seed, so a partial
/// report lists every point.
class Figure {
 public:
  Figure(const BatchReport& report, const char* title, const char* question)
      : index_(report) {
    std::vector<std::string> groups;
    for (const InstanceResult& r : report.results) {
      if (std::find(groups.begin(), groups.end(), r.group) == groups.end()) {
        groups.push_back(r.group);
        points.push_back(&r);
      }
      if (std::find(seeds.begin(), seeds.end(), r.seedIndex) == seeds.end()) {
        seeds.push_back(r.seedIndex);
      }
    }
    append("=== %s ===\n%s\n", title, question);
  }

  /// The instances of `strategies` on (group, seed) that ran, in that
  /// order; empty unless all of them ran. Strategy "" matches any, as a
  /// custom job has none.
  [[nodiscard]] std::vector<const InstanceResult*> runs(
      const std::string& group, int seed,
      std::initializer_list<const char*> strategies) const {
    std::vector<const InstanceResult*> out;
    for (const char* strategy : strategies) {
      const InstanceResult* r = index_.find(group, seed, strategy);
      if (r == nullptr) return {};
      out.push_back(r);
    }
    return out;
  }

  /// Appends printf-formatted text, keeping exact number formats.
  [[gnu::format(printf, 2, 3)]] void append(const char* format, ...) {
    va_list args, measure;
    va_start(args, format);
    va_copy(measure, args);
    const int length = std::vsnprintf(nullptr, 0, format, measure);
    va_end(measure);
    const std::size_t at = text_.size();
    text_.resize(at + static_cast<std::size_t>(std::max(length, 0)) + 1);
    std::vsnprintf(text_.data() + at, text_.size() - at, format, args);
    va_end(args);
    text_.pop_back();  // vsnprintf's terminating NUL
  }

  /// The text with the table, its CSV block, the chart (when given) and
  /// the shape check appended.
  [[nodiscard]] std::string finish(const CsvTable& table,
                                   const AsciiChart* chart,
                                   const char* shapeCheck) const {
    std::ostringstream os;
    os << text_ << '\n';
    table.writePretty(os);
    os << "\nCSV:\n";
    table.writeCsv(os);
    if (chart != nullptr) chart->render(os);
    os << '\n' << shapeCheck;
    return os.str();
  }

  std::vector<const InstanceResult*> points;
  std::vector<int> seeds;

 private:
  BatchIndex index_;
  std::string text_;
};

double extraValue(const InstanceResult& r, const std::string& key) {
  for (const auto& [k, v] : r.outcome.extras.fields) {
    if (k == key) return v;
  }
  return 0.0;
}

/// Signed percent deviation of `cost` from a positive reference cost (the
/// best any strategy found on the instance): no clamp, no floor.
double deviationPercent(double cost, double reference) {
  return (cost - reference) / reference * 100.0;
}

std::string integer(std::size_t n) {
  return CsvTable::num(static_cast<long long>(n));
}

/// F1 and F2's strategies, in column order.
constexpr const char* kPaperStrategies[] = {"AH", "MH", "SA"};

std::string qualityFigure(const BatchReport& report) {
  Figure f(report, "Figure F1 — quality of the mapping strategies",
           "Avg % deviation of AH, MH and SA cost C from the best found");
  CsvTable table({"current_processes", "seeds_rated", "dev_AH_pct",
                  "dev_MH_pct", "dev_SA_pct", "C_AH", "C_MH", "C_SA"});
  std::vector<double> xs, devSeries[3];
  for (const InstanceResult* point : f.points) {
    const auto size = static_cast<std::size_t>(point->axis);
    StatAccumulator dev[3], cost[3];
    for (const int s : f.seeds) {
      const auto runs = f.runs(point->group, s, {"AH", "MH", "SA"});
      if (runs.empty()) continue;
      double c[3];
      for (int i = 0; i < 3; ++i) {
        c[i] = runs[i]->outcome.report.objective;
        cost[i].add(c[i]);
      }
      const double best = std::min({c[0], c[1], c[2]});
      f.append("  [n=%zu seed=%d] C: AH=%.2f MH=%.2f SA=%.2f\n", size, s,
               c[0], c[1], c[2]);
      if (best <= 0.0) {
        f.append("  [n=%zu seed=%d] best C=%g, left out\n", size, s, best);
        continue;
      }
      for (int i = 0; i < 3; ++i) dev[i].add(deviationPercent(c[i], best));
    }
    // A size with no rated seed has no deviation: n/a, and no chart point.
    // A size none of whose seeds ran has no cost either.
    const bool rated = dev[0].count() > 0;
    const bool ran = cost[0].count() > 0;
    std::vector<std::string> row = {integer(size), integer(dev[0].count())};
    for (const StatAccumulator& d : dev) {
      row.push_back(rated ? CsvTable::num(d.mean()) : "n/a");
    }
    for (const StatAccumulator& c : cost) {
      row.push_back(ran ? CsvTable::num(c.mean()) : "n/a");
    }
    table.addRow(std::move(row));
    if (!rated) continue;
    xs.push_back(point->axis);
    for (int i = 0; i < 3; ++i) devSeries[i].push_back(dev[i].mean());
  }
  AsciiChart chart("Avg % deviation from the best C found per instance",
                   "processes in current application", "% deviation");
  chart.setXAxis(xs);
  for (int i = 0; i < 3; ++i) {
    chart.addSeries(kPaperStrategies[i], devSeries[i]);
  }
  return f.finish(table, &chart,
                  "Paper shape check: AH should sit far above MH wherever "
                  "the current\napplication loads the system; MH should "
                  "stay within a few % of the\nbest.\n");
}

std::string runtimeFigure(const BatchReport& report) {
  Figure f(report, "Figure F2 — execution time of the mapping strategies",
           "Avg strategy runtime [s] vs size of the current application");
  CsvTable table({"current_processes", "AH_seconds", "MH_seconds",
                  "SA_seconds", "MH_evals", "SA_evals"});
  std::vector<double> xs, secondsSeries[3];
  for (const InstanceResult* point : f.points) {
    const auto size = static_cast<std::size_t>(point->axis);
    StatAccumulator seconds[3], evals[3];
    for (const int s : f.seeds) {
      const auto runs = f.runs(point->group, s, {"AH", "MH", "SA"});
      for (std::size_t i = 0; i < runs.size(); ++i) {
        seconds[i].add(runs[i]->outcome.report.seconds);
        evals[i].add(static_cast<double>(runs[i]->outcome.report.evaluations));
      }
    }
    // A size none of whose seeds ran has no runtime: n/a, no summary line
    // and no chart point.
    if (seconds[0].count() == 0) {
      table.addRow({integer(size), "n/a", "n/a", "n/a", "n/a", "n/a"});
      continue;
    }
    table.addRow({integer(size), CsvTable::num(seconds[0].mean(), 4),
                  CsvTable::num(seconds[1].mean(), 3),
                  CsvTable::num(seconds[2].mean(), 3),
                  CsvTable::num(evals[1].mean(), 0),
                  CsvTable::num(evals[2].mean(), 0)});
    xs.push_back(point->axis);
    for (int i = 0; i < 3; ++i) secondsSeries[i].push_back(seconds[i].mean());
    f.append("  [n=%zu] avg seconds: AH=%.4f MH=%.3f SA=%.3f\n", size,
             seconds[0].mean(), seconds[1].mean(), seconds[2].mean());
  }
  AsciiChart chart("Average execution time",
                   "processes in current application", "seconds");
  chart.setXAxis(xs);
  for (int i = 2; i >= 0; --i) {
    chart.addSeries(kPaperStrategies[i], secondsSeries[i]);
  }
  return f.finish(table, &chart,
                  "Paper shape check: runtime(SA) >> runtime(MH) >> "
                  "runtime(AH), all\nincreasing with the current "
                  "application size.\n");
}

std::string futureFigure(const BatchReport& report) {
  Figure f(report, "Figure F3 — support for incremental design",
           "% of future applications (80 processes) mappable after AH vs "
           "MH");
  CsvTable table({"current_processes", "fit_AH_pct", "fit_MH_pct",
                  "samples"});
  std::vector<double> xs, ahSeries, mhSeries;
  for (const InstanceResult* point : f.points) {
    const auto size = static_cast<std::size_t>(point->axis);
    int ahFits = 0, mhFits = 0, samples = 0;
    for (const int s : f.seeds) {
      const auto runs = f.runs(point->group, s, {"AH", "MH"});
      if (runs.empty()) continue;
      ahFits += static_cast<int>(extraValue(*runs[0], "future_fit"));
      mhFits += static_cast<int>(extraValue(*runs[1], "future_fit"));
      samples += static_cast<int>(extraValue(*runs[0], "future_samples"));
    }
    if (samples == 0) continue;
    const double ahPct = 100.0 * ahFits / samples;
    const double mhPct = 100.0 * mhFits / samples;
    table.addRow({integer(size), CsvTable::num(ahPct, 1),
                  CsvTable::num(mhPct, 1),
                  integer(static_cast<std::size_t>(samples))});
    xs.push_back(point->axis);
    ahSeries.push_back(ahPct);
    mhSeries.push_back(mhPct);
    f.append("  [n=%zu] future apps mapped: AH %d/%d  MH %d/%d\n", size,
             ahFits, samples, mhFits, samples);
  }
  AsciiChart chart("% of future applications mapped",
                   "processes in current application", "% mapped");
  chart.setXAxis(xs);
  chart.addSeries("MH", mhSeries);
  chart.addSeries("AH", ahSeries);
  return f.finish(table, &chart,
                  "Paper shape check: MH stays high across the sweep; AH "
                  "falls off as\nthe current application grows and naive "
                  "mapping eats the slack the\nfuture applications would "
                  "need.\n");
}

std::string weightsFigure(const BatchReport& report) {
  Figure f(report, "Ablation A2 — objective weight sensitivity",
           "MH results under different w2/w1 ratios (current app: 240 "
           "processes)");
  CsvTable table({"weights", "C1P_pct", "C2P_ticks", "future_fit_pct"});
  for (const InstanceResult* weightCase : f.points) {
    const std::string& name = weightCase->group;
    StatAccumulator c1p, c2p;
    double fits = 0.0, samples = 0.0;
    for (const int s : f.seeds) {
      const auto runs = f.runs(name, s, {"MH"});
      if (runs.empty()) continue;
      const InstanceResult& mh = *runs[0];
      c1p.add(mh.outcome.report.metrics.c1p);
      c2p.add(static_cast<double>(mh.outcome.report.metrics.c2p));
      fits += extraValue(mh, "future_fit");
      samples += extraValue(mh, "future_samples");
    }
    const double fitPct = samples > 0.0 ? 100.0 * fits / samples : 0.0;
    table.addRow({name, CsvTable::num(c1p.mean()),
                  CsvTable::num(c2p.mean(), 0), CsvTable::num(fitPct, 1)});
    f.append("  %-18s C1P=%5.2f%%  C2P=%7.0f  future-fit=%5.1f%%\n",
             name.c_str(), c1p.mean(), c2p.mean(), fitPct);
  }
  return f.finish(table, nullptr,
                  "Shape check: dropping the C2 term (w2=0) should collapse "
                  "C2P and\nwith it the future-fit rate; any w2 >= 1 should "
                  "protect both.\n");
}

std::string incrementsFigure(const BatchReport& report) {
  Figure f(report,
           "Extension E-INC — platform lifetime under successive increments",
           "How many queued increments (16 processes each) are absorbed "
           "under AH vs MH?");
  std::vector<StatAccumulator> accepted(f.points.size());
  double queueSize = 0.0;
  for (const int s : f.seeds) {
    std::vector<const InstanceResult*> runs;
    for (const InstanceResult* policy : f.points) {
      const auto run = f.runs(policy->group, s, {""});
      runs.insert(runs.end(), run.begin(), run.end());
    }
    if (runs.size() != f.points.size()) continue;
    queueSize = extraValue(*runs[0], "queue");
    f.append("  [seed=%d] absorbed:", s);
    for (std::size_t p = 0; p < runs.size(); ++p) {
      const double count = extraValue(*runs[p], "accepted");
      accepted[p].add(count);
      f.append("%s%s %.0f/%.0f", p == 0 ? " " : "  ",
               runs[p]->group.c_str(), count, queueSize);
    }
    f.append("\n");
  }
  CsvTable table({"policy", "avg_accepted", "min", "max", "queue"});
  for (std::size_t p = 0; p < f.points.size(); ++p) {
    table.addRow({f.points[p]->group, CsvTable::num(accepted[p].mean(), 2),
                  CsvTable::num(accepted[p].min(), 0),
                  CsvTable::num(accepted[p].max(), 0),
                  CsvTable::num(static_cast<long long>(queueSize))});
  }
  return f.finish(table, nullptr,
                  "Shape check: both policies saturate the small platform "
                  "at a similar\nnumber of increments; per-seed winners "
                  "vary. The greedy per-version\nMH protects against the "
                  "*profile's* hypothetical demand, which only\nsometimes "
                  "coincides with the next concrete increment in the queue "
                  "—\nan honest neutral result that sharpens F3's positive "
                  "one: the\nfuture-aware advantage shows when the future "
                  "is characterized well\n(F3's profile-matched apps at "
                  "paper scale), not unconditionally.\n");
}

/// The one table of named sweeps: sweepNames, namedSweep and sweepFigure
/// all read it.
struct NamedSweep {
  const char* name;
  InstanceSuite (*build)(const SweepScale&);
  std::string (*figure)(const BatchReport&);
};

constexpr NamedSweep kNamedSweeps[] = {
    {"quality", qualitySweep, qualityFigure},
    {"runtime", runtimeSweep, runtimeFigure},
    {"future", futureSweep, futureFigure},
    {"weights", weightsSweep, weightsFigure},
    {"increments", incrementsSweep, incrementsFigure},
};

const NamedSweep& findSweep(const std::string& name) {
  for (const NamedSweep& sweep : kNamedSweeps) {
    if (name == sweep.name) return sweep;
  }
  std::string known;
  for (const NamedSweep& sweep : kNamedSweeps) {
    known += known.empty() ? "" : ", ";
    known += sweep.name;
  }
  throw std::invalid_argument("unknown sweep \"" + name +
                              "\" (available: " + known + ")");
}

}  // namespace

std::vector<std::string> sweepNames() {
  std::vector<std::string> names;
  for (const NamedSweep& sweep : kNamedSweeps) names.emplace_back(sweep.name);
  return names;
}

InstanceSuite namedSweep(const std::string& name, const SweepScale& scale) {
  return findSweep(name).build(scale);
}

std::string sweepFigure(const std::string& name, const BatchReport& report) {
  return findSweep(name).figure(report);
}

}  // namespace ides
