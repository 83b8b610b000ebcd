// Modification-aware redesign — the paper's announced follow-up (CODES
// 2001): when the frozen existing applications were phased badly, paying
// the re-validation cost of modifying a FEW of them can buy back far more
// design quality than any mapping of the current application alone.
//
// The example builds a system whose existing base is deliberately
// unstaggered (all applications released at phase 0 — the worst case for
// the slack-distribution criterion), then compares:
//   1. strict incremental design (requirement a: touch nothing), vs.
//   2. modification-aware design with per-application modification costs.
//
// Build & run:  ./build/examples/modification_redesign
#include <cstdio>

#include "core/incremental_designer.h"
#include "core/modification.h"
#include "model/system_model.h"
#include "tgen/benchmark_suite.h"

int main() {
  using namespace ides;

  SuiteConfig cfg;
  cfg.nodeCount = 4;
  cfg.basePeriod = 6000;
  cfg.tmin = 1500;
  cfg.existingProcesses = 60;
  cfg.existingGraphSize = 20;  // several small existing applications
  cfg.currentProcesses = 24;
  cfg.offsetPhases = 1;        // badly phased legacy base
  const Suite suite = buildSuite(cfg, /*seed=*/31);
  const SystemModel& sys = suite.system;

  std::printf("existing applications (all released at phase 0):\n");
  for (ApplicationId app : sys.applicationsOfKind(AppKind::Existing)) {
    std::printf("  %-10s %zu processes\n", sys.application(app).name.c_str(),
                sys.processesOfKind(AppKind::Existing).size() /
                    sys.applicationsOfKind(AppKind::Existing).size());
  }

  // 1. Strict incremental design.
  IncrementalDesigner designer(sys, suite.profile);
  const RunReport strict = designer.run("MH");
  std::printf("\nstrict (no modifications):      C = %8.2f   C2P = %lld\n",
              strict.objective, static_cast<long long>(strict.metrics.c2p));

  // 2. Modification-aware: each existing application carries the cost of
  //    re-validating it (say, in engineer-days); app 0 is legacy-critical.
  std::vector<std::int64_t> costs(sys.applications().size(), 3);
  const auto existing = sys.applicationsOfKind(AppKind::Existing);
  costs[existing.front().index()] = kCannotModify;  // certified, frozen
  ModificationOptions opts;
  opts.costWeight = 2.0;  // objective points one engineer-day must buy
  opts.maxModifiedApps = 2;
  const ModificationResult mod =
      designWithModifications(sys, suite.profile, costs, opts);

  std::printf("modification-aware:             C = %8.2f   C2P = %lld\n",
              mod.objective, static_cast<long long>(mod.metrics.c2p));
  std::printf("  modified applications: ");
  if (mod.modifiedApps.empty()) {
    std::printf("(none)");
  }
  for (ApplicationId app : mod.modifiedApps) {
    std::printf("%s ", sys.application(app).name.c_str());
  }
  std::printf("\n  modification cost: %lld engineer-days, total objective "
              "%0.2f\n",
              static_cast<long long>(mod.modificationCost), mod.totalCost);

  std::printf(
      "\nReading the result: the greedy subset search unfreezes existing\n"
      "applications only while an objective point gained is worth the\n"
      "re-validation cost (costWeight), and never touches the certified\n"
      "application marked kCannotModify.\n");
  return 0;
}
