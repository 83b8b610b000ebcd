// Figure F1 (paper slide 15): average percentage deviation of the AH, MH
// and SA objective C from the best cost any of the three found on the same
// instance, versus the number of processes in the current application
// (existing base: 400 processes). Deviations are signed and unclamped; an
// instance whose best cost is not positive has no relative deviation, so
// it is printed and left out of the means (`seeds_rated` counts the rest;
// a size with none reads n/a and has no chart point).
//
// Expected shape (paper): AH far above MH at every size where the current
// application actually stresses the system; MH within a few percent of the
// best (the paper's near-optimal SA).
//
// The sweep itself (sizes × seeds × {AH, MH, SA}) runs through the sharded
// BatchRunner (IDES_BENCH_SHARDS, default all cores); per-strategy results
// are bit-identical to the old per-designer loop and to any shard count.
#include <algorithm>
#include <string>

#include "bench_common.h"
#include "util/stats.h"

int main() {
  using namespace ides;
  using namespace ides::bench;

  const BenchScale scale = benchScale();
  printHeader("Figure F1 — quality of the mapping strategies",
              "Avg % deviation of AH, MH and SA cost C from the best found",
              scale);

  const InstanceSuite suite = qualitySweep(scale);
  const BatchReport report = runAndPublish(suite, "fig_quality", scale);
  const BatchIndex index(report);  // O(1) per-(group, seed, strategy) lookup

  CsvTable table({"current_processes", "seeds_rated", "dev_AH_pct",
                  "dev_MH_pct", "dev_SA_pct", "C_AH", "C_MH", "C_SA"});
  std::vector<double> xs, ahSeries, mhSeries, saSeries;

  for (const std::size_t size : scale.sizes) {
    std::string group = "n";
    group += std::to_string(size);
    StatAccumulator devAh, devMh, devSa, cAh, cMh, cSa;
    for (int s = 0; s < scale.seeds; ++s) {
      const InstanceResult* ah = index.find(group, s, "AH");
      const InstanceResult* mh = index.find(group, s, "MH");
      const InstanceResult* sa = index.find(group, s, "SA");
      if (ah == nullptr || mh == nullptr || sa == nullptr) continue;
      const double cahv = ah->outcome.report.objective;
      const double cmhv = mh->outcome.report.objective;
      const double csav = sa->outcome.report.objective;
      const double best = std::min({cahv, cmhv, csav});
      std::printf("  [n=%zu seed=%d] C: AH=%.2f MH=%.2f SA=%.2f\n", size, s,
                  cahv, cmhv, csav);
      cAh.add(cahv);
      cMh.add(cmhv);
      cSa.add(csav);
      if (best <= 0.0) {
        std::printf("  [n=%zu seed=%d] best C=%g, left out\n", size, s, best);
        continue;
      }
      devAh.add(deviationPercent(cahv, best));
      devMh.add(deviationPercent(cmhv, best));
      devSa.add(deviationPercent(csav, best));
    }
    // A size with no rated seed has no deviation: n/a, and no chart point.
    const bool rated = devAh.count() > 0;
    const auto devMean = [rated](const StatAccumulator& dev) {
      return rated ? CsvTable::num(dev.mean()) : std::string("n/a");
    };
    table.addRow({CsvTable::num(static_cast<long long>(size)),
                  CsvTable::num(static_cast<long long>(devAh.count())),
                  devMean(devAh), devMean(devMh), devMean(devSa),
                  CsvTable::num(cAh.mean()), CsvTable::num(cMh.mean()),
                  CsvTable::num(cSa.mean())});
    if (!rated) continue;
    xs.push_back(static_cast<double>(size));
    ahSeries.push_back(devAh.mean());
    mhSeries.push_back(devMh.mean());
    saSeries.push_back(devSa.mean());
  }

  std::printf("\n");
  printTableAndCsv(table);

  AsciiChart chart("Avg % deviation from the best C found per instance",
                   "processes in current application", "% deviation");
  chart.setXAxis(xs);
  chart.addSeries("AH", ahSeries);
  chart.addSeries("MH", mhSeries);
  chart.addSeries("SA", saSeries);
  chart.render(std::cout);

  std::printf(
      "\nPaper shape check: AH should sit far above MH wherever the current\n"
      "application loads the system; MH should stay within a few %% of the\n"
      "best.\n");
  return 0;
}
