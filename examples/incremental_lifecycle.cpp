// The incremental design lifecycle across three product versions
// (paper slides 6-8):
//
//   Version N-1: the platform already runs 400 processes of existing
//                applications (frozen).
//   Version N:   a 240-process current application must be mapped WITHOUT
//                touching the existing ones — once naively (AH), once
//                future-aware (MH).
//   Version N+1: future applications arrive. On the AH design they no
//                longer fit; on the MH design they do.
//
// Instead of a (unreadably dense) Gantt, the example prints the per-window
// slack profile — the quantity the paper's second criterion is about: how
// much processor time each Tmin window still guarantees.
//
// Build & run:  ./build/examples/incremental_lifecycle
#include <cstdio>

#include "core/future_fit.h"
#include "core/incremental_designer.h"
#include "model/system_model.h"
#include "sched/slack.h"
#include "tgen/benchmark_suite.h"

namespace {

void printWindowProfile(const char* label, const ides::PlatformState& state,
                        ides::Time tmin) {
  using namespace ides;
  const SlackInfo slack = extractSlack(state);
  const std::int64_t windows = slack.horizon / tmin;
  std::printf("  %-28s", label);
  Time minSlack = kTimeMax;
  for (std::int64_t w = 0; w < windows; ++w) {
    Time total = 0;
    for (std::size_t n = 0; n < slack.nodeFree.size(); ++n) {
      total += slack.nodeSlackInWindow(n, w * tmin, (w + 1) * tmin);
    }
    minSlack = std::min(minSlack, total);
    std::printf(" %7lld", static_cast<long long>(total));
  }
  std::printf("   (min %lld)\n", static_cast<long long>(minSlack));
}

}  // namespace

int main() {
  using namespace ides;

  SuiteConfig cfg;
  cfg.nodeCount = 10;
  cfg.existingProcesses = 400;
  cfg.currentProcesses = 240;
  cfg.futureAppCount = 3;
  cfg.futureProcesses = 80;
  cfg.tneedOverride = 12000;  // "most demanding" future app, with margin
  std::printf("building the version history (10 nodes, 400 existing + 240 "
              "current processes)...\n\n");
  const Suite suite = buildSuite(cfg, /*seed=*/1);
  const SystemModel& sys = suite.system;

  IncrementalDesigner designer(sys, suite.profile);

  std::printf("== Version N-1: existing applications frozen ==\n");
  std::printf("  %zu process instances scheduled; nothing may move them "
              "again.\n\n",
              designer.frozenSchedule().processEntryCount());

  std::printf("== Version N: map the current application ==\n");
  const RunReport ah = designer.run("AH");
  const RunReport mh = designer.run("MH");
  std::printf("  AH: C=%7.2f   guaranteed periodic slack C2P=%6lld "
              "(tneed=%lld)\n",
              ah.objective, static_cast<long long>(ah.metrics.c2p),
              static_cast<long long>(suite.profile.tneed));
  std::printf("  MH: C=%7.2f   guaranteed periodic slack C2P=%6lld\n\n",
              mh.objective, static_cast<long long>(mh.metrics.c2p));

  const PlatformState afterAh = designer.stateWith(ah);
  const PlatformState afterMh = designer.stateWith(mh);
  std::printf("  total processor slack per Tmin window [ticks]:\n");
  printWindowProfile("existing only:", designer.frozenBase().state,
                     suite.profile.tmin);
  printWindowProfile("after AH (naive):", afterAh, suite.profile.tmin);
  printWindowProfile("after MH (future-aware):", afterMh,
                     suite.profile.tmin);
  std::printf(
      "  AH piles the new load onto the early windows (its minimum "
      "collapses);\n  MH levels the load so every window keeps room for a "
      "Tmin-periodic\n  future application.\n\n");

  std::printf("== Version N+1: future applications arrive ==\n");
  for (ApplicationId app : sys.applicationsOfKind(AppKind::Future)) {
    const bool fitsAh = tryMapFutureApplication(sys, app, afterAh).fits;
    const bool fitsMh = tryMapFutureApplication(sys, app, afterMh).fits;
    std::printf("  %-10s fits after AH: %-3s   fits after MH: %s\n",
                sys.application(app).name.c_str(), fitsAh ? "yes" : "NO",
                fitsMh ? "yes" : "NO");
  }
  std::printf(
      "\nThe point of the paper: both designs satisfied version N equally\n"
      "well; only the future-aware one is still extensible at version "
      "N+1.\n");
  return 0;
}
