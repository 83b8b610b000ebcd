#include <sys/resource.h>

#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "stats.h"
#include "util/rng.h"

namespace idesbench {

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // Kept below 2^31 so every derived seed also survives the daemon's JSON
  // job specs unchanged.
  return 1 + ides::rngStreamSeed(seed, stream) % 2147483647ULL;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail(what);
}

void addEndToEnd(const OpLog& log, Report& report) {
  const double kernelMs = median(log.kernelMs);
  const double speedFactor =
      kernelMs > 0.0 ? kReferenceKernelMs / kernelMs : 1.0;
  char speed[160];
  if (log.kernelMs.empty()) {
    std::snprintf(speed, sizeof(speed), "machine speed: times not scaled");
  } else {
    std::snprintf(speed, sizeof(speed),
                  "machine speed: idle kernel median %.4f ms over %zu "
                  "samples; times scaled by %.4f",
                  kernelMs, log.kernelMs.size(), speedFactor);
  }
  report.note(speed);

  std::vector<double> setups = log.setupSeconds;
  if (log.setupKernelMs.size() == setups.size()) {
    for (std::size_t i = 0; i < setups.size(); ++i) {
      setups[i] *= kReferenceKernelMs / log.setupKernelMs[i];
    }
  }
  report.metric("setup_s", median(setups), "s", setups.size());
  std::string setupNote = "set-up repeats (s, unscaled):";
  for (const double s : log.setupSeconds) setupNote += " " + std::to_string(s);
  report.note(setupNote);
  report.metric("peak_rss_mb", log.peakRssMb, "MB", 1);
  // Each distinct operation contributes its median over repeats, so the
  // sample set has a fixed composition however many rounds fit the run.
  // The round's wall time is scaled in the share of it that one-thread
  // operations took.
  std::vector<double> perOp;
  std::map<std::string, std::vector<double>> byStrategy;
  double allMs = 0.0;
  double scaledMs = 0.0;
  for (const auto& [key, repeats] : log.latencyMs) {
    const double factor =
        log.multiThreaded.count(key) > 0 ? 1.0 : speedFactor;
    const double ms = factor * median(repeats);
    perOp.push_back(ms);
    byStrategy[log.strategy.at(key)].push_back(ms);
    for (const double repeat : repeats) {
      allMs += repeat;
      scaledMs += factor * repeat;
    }
  }
  const double roundFactor = allMs > 0.0 ? scaledMs / allMs : 1.0;
  report.metric("ops_per_s",
                Ratio{static_cast<double>(log.roundOps),
                      roundFactor * log.roundSeconds}
                    .value(),
                "1/s", log.roundOps);
  report.metric("op_p50_ms", quantile(perOp, 0.5), "ms", perOp.size());
  report.metric("op_p90_ms", quantile(perOp, 0.9), "ms", perOp.size());
  const double tail = tailPercentile(perOp.size());
  char line[160];
  if (tail > 0.0) {
    std::snprintf(line, sizeof(line),
                  "tail by the 10-beyond rule: p%g = %.3f ms over "
                  "%zu operations",
                  tail, quantile(perOp, tail / 100.0), perOp.size());
  } else {
    std::snprintf(line, sizeof(line),
                  "tail by the 10-beyond rule: none (%zu operations)",
                  perOp.size());
  }
  report.note(line);

  for (const auto& [name, strategy] :
       {std::pair{"mh_ms", "MH"}, std::pair{"sa_ms", "SA"}}) {
    const std::vector<double>& ms = byStrategy[strategy];
    try {
      report.metric(name, geomean(ms), "ms", ms.size());
    } catch (const std::domain_error&) {
      report.fail(std::string("no timed ") + strategy + " operations");
      report.metric(name, 0.0, "ms", 0);
    }
  }
  try {
    report.metric("objective", geomean(log.objectives), "C",
                  log.objectives.size());
  } catch (const std::domain_error&) {
    report.fail("no positive objectives to average");
    report.metric("objective", 0.0, "C", 0);
  }
}

void OpLog::recordSetup(double seconds) {
  setupSeconds.push_back(seconds);
  std::vector<double> samples;
  (void)idesbench::sampleSpeed(samples, kKernelRunsPerSetup);
  setupKernelMs.push_back(median(samples));
}

double selfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace idesbench
