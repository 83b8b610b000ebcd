// sweepFigure: every named sweep's smoke run renders its figure with the
// sweep's CSV header and one CSV row per point (size, weight case or
// policy); a point whose instances did not run stays in F1's table as n/a;
// an unknown name throws like namedSweep.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_suites.h"

namespace ides {
namespace {

/// The smoke run of a named sweep on one shard, computed once per test
/// binary.
const BatchReport& smokeReport(const std::string& name) {
  static std::map<std::string, BatchReport> reports;
  if (reports.count(name) == 0) {
    BatchOptions options;
    options.shards = 1;
    const InstanceSuite suite = namedSweep(name, sweepScaleNamed("smoke"));
    reports[name] = runBatch(suite, options);
  }
  return reports.at(name);
}

/// The lines of the figure's CSV block: the header, then one per row.
std::vector<std::string> csvBlock(const std::string& figure) {
  std::istringstream in(figure);
  std::vector<std::string> lines;
  std::string line;
  bool inBlock = false;
  while (std::getline(in, line)) {
    if (inBlock && line.empty()) break;
    if (inBlock) lines.push_back(line);
    if (line == "CSV:") inBlock = true;
  }
  return lines;
}

/// Checks the smoke figure of sweep `name`: it opens with its title line,
/// and its CSV block is `header` then one row per point, led by the
/// point's label.
void expectCsvBlock(const std::string& name, const std::string& header,
                    const std::vector<std::string>& points) {
  SCOPED_TRACE(name);
  const std::string figure = sweepFigure(name, smokeReport(name));
  EXPECT_EQ(figure.rfind("=== ", 0), 0u);
  const std::vector<std::string> csv = csvBlock(figure);
  ASSERT_EQ(csv.size(), points.size() + 1);
  EXPECT_EQ(csv[0], header);
  for (std::size_t row = 0; row < points.size(); ++row) {
    EXPECT_EQ(csv[row + 1].substr(0, csv[row + 1].find(',')), points[row]);
  }
}

TEST(SweepFigure, EveryNamedSweepPrintsItsCsvBlock) {
  const std::vector<std::string> names = {"quality", "runtime", "future",
                                          "weights", "increments"};
  ASSERT_EQ(sweepNames(), names);
  const std::vector<std::string> sizes = {"40", "160", "320"};
  expectCsvBlock("quality",
                 "current_processes,seeds_rated,dev_AH_pct,dev_MH_pct,"
                 "dev_SA_pct,C_AH,C_MH,C_SA",
                 sizes);
  expectCsvBlock("runtime",
                 "current_processes,AH_seconds,MH_seconds,SA_seconds,"
                 "MH_evals,SA_evals",
                 sizes);
  // F3 caps the sizes at 240.
  expectCsvBlock("future", "current_processes,fit_AH_pct,fit_MH_pct,samples",
                 {"40", "160", "240"});
  const std::vector<std::string> cases = {"C1-only (w2=0)", "balanced (w2=1)",
                                          "default (w2=2)", "C2-heavy (w2=8)"};
  expectCsvBlock("weights", "weights,C1P_pct,C2P_ticks,future_fit_pct",
                 cases);
  const std::vector<std::string> policies = {"AH", "MH"};
  expectCsvBlock("increments", "policy,avg_accepted,min,max,queue",
                 policies);
}

TEST(SweepFigure, QualityPointThatDidNotRunReadsNotAvailable) {
  BatchReport partial = smokeReport("quality");
  for (InstanceResult& r : partial.results) {
    if (r.group == "n320") r.ran = false;
  }
  const std::vector<std::string> csv =
      csvBlock(sweepFigure("quality", partial));
  ASSERT_EQ(csv.size(), 4u);
  EXPECT_EQ(csv[1].rfind("40,1,", 0), 0u);
  EXPECT_EQ(csv[3], "320,0,n/a,n/a,n/a,0.00,0.00,0.00");
}

TEST(SweepFigure, UnknownNameThrowsListingTheSweeps) {
  try {
    (void)sweepFigure("nope", BatchReport{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "available: quality, runtime, future, weights, increments"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ides
