// Modification-aware incremental design — the paper's announced follow-up
// (CODES 2001: "Allow modifications to the existing applications: capture
// the modification cost, decide which applications should be modified,
// minimize the modification cost").
//
// The DAC'01 formulation forbids touching the existing applications
// (requirement a). In practice some of them *may* be re-mapped — at a
// price: re-validation, re-certification, re-testing of that application.
// This module models that price as a per-application modification cost R_i
// and searches for the subset Ω of existing applications to modify that
// minimizes
//
//     total = C(design with Ω movable) + costWeight * Σ_{i in Ω} R_i
//
// Subset selection is greedy (the CODES paper's iterative flavour): start
// from Ω = ∅; repeatedly try unfreezing each remaining existing
// application, re-run MH from the IM (one runStrategy run) with the
// enlarged movable set, and keep the best single addition while it lowers
// the total; stop at a local minimum or after maxModifiedApps additions.
// Applications whose modification is forbidden get cost kCannotModify and
// are never unfrozen.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/mapping_heuristic.h"
#include "core/metrics.h"
#include "sched/mapping.h"
#include "sched/schedule.h"

namespace ides {

class SystemModel;

/// Sentinel cost for applications that must never be modified.
inline constexpr std::int64_t kCannotModify = -1;

struct ModificationOptions {
  /// Objective units per modification-cost unit (lambda in the total).
  double costWeight = 1.0;
  /// Upper bound on |Omega|.
  std::size_t maxModifiedApps = 3;
  MetricWeights weights;
  MhOptions mh;
};

struct ModificationResult {
  bool feasible = false;
  /// The chosen Omega, in the order the greedy search added them.
  std::vector<ApplicationId> modifiedApps;
  std::int64_t modificationCost = 0;
  /// Objective C of the final design (movable = current + Omega).
  double objective = 0.0;
  /// objective + costWeight * modificationCost — what the search minimized.
  double totalCost = 0.0;
  DesignMetrics metrics;
  /// Mapping/hints of every movable process, and their schedule.
  MappingSolution solution;
  Schedule schedule;
  std::size_t evaluations = 0;
};

/// Run modification-aware design. `modificationCost[a]` is R_a for
/// application id a (one entry per application in the model; entries for
/// non-existing applications are ignored; kCannotModify pins an
/// application). Throws std::invalid_argument on arity mismatch.
ModificationResult designWithModifications(
    const SystemModel& sys, const FutureProfile& profile,
    const std::vector<std::int64_t>& modificationCost,
    const ModificationOptions& options = {});

}  // namespace ides
