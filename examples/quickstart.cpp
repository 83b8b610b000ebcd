// Quickstart: the full incremental-design flow on a small generated system.
//
//   1. Build a benchmark suite: a 4-node TTP architecture with a frozen base
//      of existing applications, a current application, and one candidate
//      future application.
//   2. Run the three mapping strategies (AH / MH / SA) on the current
//      application and print their design metrics and objective C.
//   3. Check whether the future application still fits after each strategy.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/future_fit.h"
#include "core/incremental_designer.h"
#include "tgen/benchmark_suite.h"

int main() {
  using namespace ides;

  // A laptop-sized but *loaded* instance: 4 nodes at ~60% utilization, so
  // the incremental-design criteria actually bite.
  SuiteConfig cfg;
  cfg.nodeCount = 4;
  cfg.basePeriod = 6000;
  cfg.tmin = 1500;
  cfg.existingProcesses = 60;
  cfg.currentProcesses = 40;
  cfg.futureAppCount = 1;
  cfg.futureProcesses = 8;
  cfg.futureGraphSize = 8;
  // Characterize the most demanding future application with headroom above
  // its raw CPU demand (fragmentation, bus waits): 2x the expected need.
  cfg.tneedOverride = 2 * 8 * 69;
  Suite suite = buildSuite(cfg, /*seed=*/42);
  const SystemModel& sys = suite.system;

  std::printf("system: %zu nodes, %zu applications, %zu processes, %zu "
              "messages, hyperperiod %lld\n",
              sys.architecture().nodeCount(), sys.applications().size(),
              sys.processes().size(), sys.messages().size(),
              static_cast<long long>(sys.hyperperiod()));
  std::printf("future profile: Tmin=%lld tneed=%lld bneed=%lldB\n\n",
              static_cast<long long>(suite.profile.tmin),
              static_cast<long long>(suite.profile.tneed),
              static_cast<long long>(suite.profile.bneedBytes));

  IncrementalDesigner designer(sys, suite.profile);
  const ApplicationId futureApp =
      sys.applicationsOfKind(AppKind::Future).front();

  for (const char* s : {"AH", "MH", "SA"}) {
    const RunReport r = designer.run(s);
    const FutureFitResult fit =
        tryMapFutureApplication(sys, futureApp, designer.stateWith(r));
    std::printf(
        "%-2s: feasible=%d  C=%8.2f  C1P=%5.1f%%  C1m=%5.1f%%  C2P=%6lld  "
        "C2m=%5lldB  evals=%-6zu  %.3fs  future-fits=%d\n",
        s, r.feasible, r.objective, r.metrics.c1p, r.metrics.c1m,
        static_cast<long long>(r.metrics.c2p),
        static_cast<long long>(r.metrics.c2mBytes), r.evaluations, r.seconds,
        fit.fits);
  }
  return 0;
}
