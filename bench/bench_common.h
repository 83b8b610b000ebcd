// Shared infrastructure for the bench programs.
//
// The paper's figures are named sweeps that `ides_cli sweep` runs and
// prints (core/batch_suites.h). The bench programs here measure what the
// sweeps do not: layer speedups, ablation A1, extension E-MOD and the
// lifecycle gate. Each prints a numeric table and a CSV block and writes
// BENCH_<name>.json. The IDES_BENCH_SCALE environment variable selects the
// effort:
//   smoke   — 1 seed, short SA, coarse axis (CI-friendly, ~tens of seconds)
//   default — 3 seeds, medium SA (a few minutes per bench)
//   full    — 5 seeds, long SA (paper-style patience)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/batch_suites.h"
#include "core/incremental_designer.h"
#include "obs/telemetry.h"
#include "tgen/benchmark_suite.h"
#include "util/csv.h"
#include "util/json_reader.h"
#include "util/provenance.h"

namespace ides::bench {

/// The paper-scale instance definitions live in the library
/// (core/batch_suites.h); these aliases keep the bench programs short.
using BenchScale = SweepScale;

/// Scale selected by IDES_BENCH_SCALE. Lenient: anything but smoke or full
/// runs the default scale.
inline BenchScale benchScale() {
  const char* env = std::getenv("IDES_BENCH_SCALE");
  const std::string name = env == nullptr ? "" : env;
  return sweepScaleNamed(name == "smoke" || name == "full" ? name
                                                           : "default");
}

inline SuiteConfig paperConfig(std::size_t current,
                               std::size_t futureApps = 0) {
  return paperSuiteConfig(current, futureApps);
}

inline DesignerOptions designerOptions(const BenchScale& scale,
                                       std::uint64_t saSeed = 1) {
  return sweepDesignerOptions(scale, saSeed);
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

/// Writes a pre-rendered BENCH_<name>.json payload via the library's
/// shared publishing helper; reports the path (or the failure) on stdout.
inline void writeBenchJsonString(const std::string& name,
                                 const std::string& payload) {
  const std::string path = benchJsonPath(name);
  if (writeBenchJsonFile(name, payload)) {
    std::printf("machine-readable results: %s\n", path.c_str());
  } else {
    std::printf("(could not write %s)\n", path.c_str());
  }
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
