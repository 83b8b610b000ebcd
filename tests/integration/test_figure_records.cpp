// The reproduced paper figures F1 (quality), F2 (runtime) and F3 (future
// fit), committed as default-scale sweep records under figures/, against a
// fresh run of the same sweeps, and the paper's shapes that hold on them
// today:
//   - F1: MH's cost is at most AH's on every instance from 160 processes
//     up;
//   - F2: AH < MH < SA in evaluations on every instance, the deterministic
//     side of "runtime(SA) >> runtime(MH) >> runtime(AH)" (the record
//     holds no wall-clock);
//   - F3: MH fits at least as many future applications as AH at every
//     size, and strictly more at 240 processes.
// The records are the BENCH json of `ides_cli sweep --no-timing`, compared
// with the provenance header fields (git_sha, hostname,
// hardware_concurrency, compiler) masked on both sides. When a change
// moves results on purpose, regenerate them with kRegenerate below.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/batch_suites.h"
#include "util/json_reader.h"

namespace ides {
namespace {

constexpr const char* kRegenerate =
    "for s in quality runtime future; do ./build/examples/ides_cli sweep "
    "--suite $s --scale default --no-timing && mv BENCH_sweep_$s.json "
    "figures/fig_${s}_default.json; done";

std::string recordPath(const std::string& suite) {
  return std::string(IDES_SOURCE_DIR) + "/figures/fig_" + suite +
         "_default.json";
}

std::string readRecord(const std::string& suite) {
  std::ifstream in(recordPath(suite), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << recordPath(suite);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The rendering with the provenance header values blanked: they name the
/// build and the machine, not the results.
std::string maskProvenance(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    for (const char* key :
         {"git_sha", "hostname", "hardware_concurrency", "compiler"}) {
      const std::string prefix = std::string("  \"") + key + "\": ";
      if (line.rfind(prefix, 0) == 0) line = prefix + "*,";
    }
    out += line;
    out += '\n';
  }
  return out;
}

void expectRecordIsCurrent(const std::string& suite) {
  const SweepScale scale = sweepScaleNamed("default");
  BatchOptions options;
  options.shards = 0;  // one per core: the rendering is shard-independent
  const BatchReport report = runBatch(namedSweep(suite, scale), options);
  BatchJsonOptions json;
  json.scale = scale.name;
  json.timing = false;
  const std::string fresh = batchReportJson("sweep_" + suite, report, json);
  EXPECT_EQ(maskProvenance(fresh), maskProvenance(readRecord(suite)))
      << "figures/fig_" << suite << "_default.json is stale; regenerate "
      << "the records from the repository root with:\n  " << kRegenerate;
}

/// Each record's results keyed by (size, seed) and then strategy.
using Results = std::map<std::pair<int, int>, std::map<std::string, JsonValue>>;

Results resultsOf(const std::string& suite) {
  const JsonValue root = parseJson(readRecord(suite));
  Results results;
  for (const JsonValue& r : root.at("results").items) {
    const auto key = std::make_pair(static_cast<int>(r.intAt("axis")),
                                    static_cast<int>(r.intAt("seed")));
    results[key][r.stringAt("strategy")] = r;
  }
  return results;
}

TEST(FigureRecords, QualityRecordIsCurrent) {
  expectRecordIsCurrent("quality");
}

TEST(FigureRecords, RuntimeRecordIsCurrent) {
  expectRecordIsCurrent("runtime");
}

TEST(FigureRecords, FutureRecordIsCurrent) {
  expectRecordIsCurrent("future");
}

TEST(FigureRecords, QualityMhNoWorseThanAhFrom160Processes) {
  int compared = 0;
  for (const auto& [key, byStrategy] : resultsOf("quality")) {
    if (key.first < 160) continue;
    const JsonValue& ah = byStrategy.at("AH");
    const JsonValue& mh = byStrategy.at("MH");
    ASSERT_EQ(ah.intAt("feasible"), 1);
    ASSERT_EQ(mh.intAt("feasible"), 1);
    EXPECT_GE(ah.numberAt("objective"), mh.numberAt("objective"))
        << key.first << " processes, seed " << key.second;
    ++compared;
  }
  EXPECT_EQ(compared, 9);  // 160, 240 and 320 processes x 3 seeds
}

TEST(FigureRecords, RuntimeEvaluationsGrowAhMhSa) {
  int compared = 0;
  for (const auto& [key, byStrategy] : resultsOf("runtime")) {
    const std::int64_t ah = byStrategy.at("AH").intAt("evaluations");
    const std::int64_t mh = byStrategy.at("MH").intAt("evaluations");
    const std::int64_t sa = byStrategy.at("SA").intAt("evaluations");
    EXPECT_LT(ah, mh) << key.first << " processes, seed " << key.second;
    EXPECT_LT(mh, sa) << key.first << " processes, seed " << key.second;
    ++compared;
  }
  EXPECT_EQ(compared, 15);  // 5 sizes x 3 seeds
}

TEST(FigureRecords, FutureMhFitsAtLeastAsManyAsAh) {
  // Summed over the seeds of each size.
  std::map<int, std::map<std::string, std::int64_t>> fit;
  for (const auto& [key, byStrategy] : resultsOf("future")) {
    for (const auto& [strategy, r] : byStrategy) {
      fit[key.first][strategy] += r.intAt("future_fit");
    }
  }
  ASSERT_EQ(fit.size(), 4u);  // 40, 80, 160 and 240 processes
  for (const auto& [size, byStrategy] : fit) {
    EXPECT_GE(byStrategy.at("MH"), byStrategy.at("AH")) << size;
  }
  EXPECT_GT(fit.at(240).at("MH"), fit.at(240).at("AH"));
}

}  // namespace
}  // namespace ides
