// Shared infrastructure for the figure benches.
//
// Every figure bench sweeps the same axis as the paper (number of processes
// in the current application, on a base of 400 existing processes) and
// prints a numeric table, a CSV block, and an ASCII rendition of the
// figure. The IDES_BENCH_SCALE environment variable selects the effort:
//   smoke   — 1 seed, short SA, coarse axis (CI-friendly, ~tens of seconds)
//   default — 3 seeds, medium SA (a few minutes per figure)
//   full    — 5 seeds, long SA (paper-style patience)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/batch_suites.h"
#include "core/incremental_designer.h"
#include "obs/telemetry.h"
#include "store/sweep_store.h"
#include "tgen/benchmark_suite.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/json_reader.h"
#include "util/provenance.h"

namespace ides::bench {

/// The scale knob and the paper-scale instance definitions moved into the
/// library (core/batch_suites.h) when the figure drivers were ported onto
/// the BatchRunner; these aliases keep the remaining hand-rolled benches
/// (ablation A1, the modification extension, the micro benches) unchanged.
using BenchScale = SweepScale;

inline BenchScale benchScale() { return sweepScale(); }

inline SuiteConfig paperConfig(std::size_t current,
                               std::size_t futureApps = 0) {
  return paperSuiteConfig(current, futureApps);
}

inline DesignerOptions designerOptions(const BenchScale& scale,
                                       std::uint64_t saSeed = 1) {
  return sweepDesignerOptions(scale, saSeed);
}

/// Shards for the BatchRunner-backed drivers: IDES_BENCH_SHARDS, default 0
/// (= all cores). Aggregated results are bit-identical for every value.
inline int benchShards() {
  const char* env = std::getenv("IDES_BENCH_SHARDS");
  return env == nullptr || *env == '\0' ? 0 : std::atoi(env);
}

/// Signed percent deviation of `cost` from a positive reference cost (the
/// best any strategy found on the instance): no clamp, no floor.
inline double deviationPercent(double cost, double reference) {
  return (cost - reference) / reference * 100.0;
}

inline void printHeader(const char* figure, const char* question,
                        const BenchScale& scale) {
  std::printf("=== %s ===\n%s\n", figure, question);
  std::printf(
      "scale=%s (seeds per point: %d, SA iterations: %d)  "
      "[set IDES_BENCH_SCALE=smoke|default|full]\n\n",
      scale.name.c_str(), scale.seeds, scale.saIterations);
}

inline void printTableAndCsv(const CsvTable& table) {
  table.writePretty(std::cout);
  std::printf("\nCSV:\n");
  table.writeCsv(std::cout);
}

/// Writes a pre-rendered BENCH_<name>.json payload (e.g. from
/// batchReportJson) via the library's shared publishing helper; reports
/// the path (or the failure) on stdout.
inline void writeBenchJsonString(const std::string& name,
                                 const std::string& payload) {
  const std::string path = benchJsonPath(name);
  if (writeBenchJsonFile(name, payload)) {
    std::printf("machine-readable results: %s\n", path.c_str());
  } else {
    std::printf("(could not write %s)\n", path.c_str());
  }
}

/// Convenience for the BatchRunner-backed drivers: run the sweep with the
/// env-selected shard count, echo per-instance completions, and write the
/// canonical JSON (timing included — the deterministic prefix of each
/// record is still byte-stable; the determinism tests compare with timing
/// off).
///
/// Sweep-store opt-in: when IDES_SWEEP_STORE names a directory, completed
/// instances persist there and already-stored ones are reused, so
/// regenerating a figure after a code-irrelevant change (or re-rendering
/// another axis of the same sweep) is near-instant. Delete the store — or
/// bump kSweepFingerprintEpoch in a result-changing PR — to force fresh
/// runs.
inline BatchReport runAndPublish(const InstanceSuite& suite,
                                 const std::string& benchName,
                                 const BenchScale& scale) {
  BatchOptions options;
  options.shards = benchShards();
  options.onInstanceDone = [](const InstanceResult& r) {
    if (r.cached) {
      std::printf("  [%s] from store\n", r.id.c_str());
    } else if (r.outcome.hasReport) {
      std::printf("  [%s] C=%.2f (%.3fs)\n", r.id.c_str(),
                  r.outcome.report.objective, r.outcome.report.seconds);
    } else {
      std::printf("  [%s] done\n", r.id.c_str());
    }
  };

  std::optional<SweepStore> store;
  std::optional<SweepStoreCache> cache;
  const char* storeDir = std::getenv("IDES_SWEEP_STORE");
  if (storeDir != nullptr && *storeDir != '\0') {
    store.emplace(storeDir);
    cache.emplace(*store, suite.name(), /*reuse=*/true);
    options.cache = &*cache;
  }

  const BatchReport report = runBatch(suite, options);
  if (cache.has_value()) {
    std::printf("sweep store %s: %zu reused, %zu newly stored\n", storeDir,
                cache->hits(), cache->stored());
  }
  BatchJsonOptions json;
  json.scale = scale.name;
  writeBenchJsonString(benchName, batchReportJson(benchName, report, json));
  return report;
}

inline double extraValue(const InstanceResult& r, const std::string& key,
                         double fallback = 0.0) {
  for (const auto& [k, v] : r.outcome.extras.fields) {
    if (k == key) return v;
  }
  return fallback;
}

/// Machine-readable bench results: BENCH_<name>.json, one flat record per
/// instance, written to IDES_BENCH_JSON_DIR (default: the working
/// directory). The files are what tracks the perf trajectory across PRs —
/// the result records are deterministic, no timestamps. (The "telemetry"
/// header is the one wall-clock-bearing block; diff "results", not the
/// whole file.)
class BenchJson {
 public:
  explicit BenchJson(std::string name, std::string scale)
      : name_(std::move(name)), scale_(std::move(scale)) {}

  BenchJson& beginRecord() {
    records_.emplace_back();
    return *this;
  }
  BenchJson& field(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    records_.back().emplace_back(key, buf);
    return *this;
  }
  BenchJson& field(const char* key, long long value) {
    records_.back().emplace_back(key, std::to_string(value));
    return *this;
  }
  BenchJson& field(const char* key, const std::string& value) {
    records_.back().emplace_back(key, jsonQuote(value));
    return *this;
  }

  /// Writes BENCH_<name>.json; reports the path (or the failure) on stdout.
  void write() const {
    const Provenance& prov = buildProvenance();
    std::string out =
        "{\n  \"bench\": " + jsonQuote(name_) +
        ",\n  \"scale\": " + jsonQuote(scale_) +
        ",\n  \"git_sha\": " + jsonQuote(prov.gitSha) +
        ",\n  \"hostname\": " + jsonQuote(prov.hostname) +
        ",\n  \"hardware_concurrency\": " +
        std::to_string(prov.hardwareConcurrency) +
        ",\n  \"compiler\": " + jsonQuote(prov.compiler) +
        // Telemetry snapshot of the whole bench process so far (empty
        // object when IDES_TELEMETRY=off). Counters here are observability
        // only — the deterministic result records never read them.
        ",\n  \"telemetry\": " + telemetry().jsonSnapshot() +
        ",\n  \"results\": [";
    for (std::size_t r = 0; r < records_.size(); ++r) {
      out += r == 0 ? "\n    {" : ",\n    {";
      for (std::size_t f = 0; f < records_[r].size(); ++f) {
        if (f > 0) out += ", ";
        out += jsonQuote(records_[r][f].first) + ": " + records_[r][f].second;
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    writeBenchJsonString(name_, out);
  }

 private:
  std::string name_;
  std::string scale_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

}  // namespace ides::bench
