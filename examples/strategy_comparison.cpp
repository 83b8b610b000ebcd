// Side-by-side comparison of the three mapping strategies on one instance,
// including the per-criterion breakdown of the objective C — a compact
// version of what the figure benches sweep.
//
// Usage:  ./build/examples/strategy_comparison [current_processes] [seed]
// Defaults: 240 processes, seed 1 (paper-scale 10-node platform).
#include <cstdio>
#include <cstdlib>

#include "core/future_fit.h"
#include "core/incremental_designer.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"

int main(int argc, char** argv) {
  using namespace ides;

  const std::size_t current =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 240;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;

  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = current;
  cfg.futureAppCount = 4;
  cfg.futureProcesses = 80;
  cfg.tneedOverride = 12000;
  std::printf("building suite: 10 nodes, 400 existing + %zu current "
              "processes (seed %llu)...\n",
              current, static_cast<unsigned long long>(seed));
  const Suite suite = buildSuite(cfg, seed);
  const SystemModel& sys = suite.system;

  DesignerOptions opts;
  opts.sa.iterations = 8000;
  IncrementalDesigner designer(sys, suite.profile, opts);

  std::printf("\nprofile: Tmin=%lld tneed=%lld bneed=%lldB\n",
              static_cast<long long>(suite.profile.tmin),
              static_cast<long long>(suite.profile.tneed),
              static_cast<long long>(suite.profile.bneedBytes));
  std::printf(
      "\n%-3s %10s %8s %8s %10s %10s %9s %10s %8s\n", "", "C", "C1P%",
      "C1m%", "C2P", "C2m[B]", "evals", "seconds", "fut-fit");

  for (const char* s : {"AH", "MH", "SA"}) {
    const RunReport r = designer.run(s);
    int fits = 0, total = 0;
    const PlatformState after = designer.stateWith(r);
    for (ApplicationId app : sys.applicationsOfKind(AppKind::Future)) {
      fits += tryMapFutureApplication(sys, app, after).fits;
      ++total;
    }
    std::printf("%-3s %10.2f %8.2f %8.2f %10lld %10lld %9zu %10.3f %5d/%d\n",
                s, r.objective, r.metrics.c1p, r.metrics.c1m,
                static_cast<long long>(r.metrics.c2p),
                static_cast<long long>(r.metrics.c2mBytes), r.evaluations,
                r.seconds, fits, total);
  }

  std::printf(
      "\nReading the table: C2P is the guaranteed processor time per Tmin\n"
      "window (must reach tneed); AH leaves it starved, MH/SA protect it\n"
      "at a fraction of SA's runtime. fut-fit counts how many candidate\n"
      "future applications can still be mapped afterwards.\n");
  return 0;
}
