// Multi-increment simulation: the incremental design process played
// forward over several product versions.
//
// The paper evaluates one step of the process (map the current application,
// check one future application). The real claim is about the *process*: a
// platform designed future-aware should absorb MORE successive increments
// before running out of room. This module simulates that: a queue of
// candidate applications is implemented one per version; at each version
// the increment is mapped with the chosen strategy and frozen; the run
// ends when an increment no longer fits. The number of absorbed increments
// is the lifetime of the platform under that design policy.
#pragma once

#include <string>
#include <vector>

#include "core/future_profile.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "sched/platform_state.h"
#include "util/ids.h"
#include "util/stop_token.h"

namespace ides {

class SystemModel;

struct IncrementStep {
  ApplicationId application;
  bool accepted = false;
  /// Objective C after committing this increment (if accepted).
  double objective = 0.0;
  DesignMetrics metrics;
};

struct MultiIncrementResult {
  /// Steps in queue order; acceptance stops at the first rejection only if
  /// stopAtFirstReject, otherwise later increments are still tried.
  std::vector<IncrementStep> steps;
  std::size_t accepted = 0;
  /// Platform occupancy after the last accepted increment.
  PlatformState finalState;
  /// True when MultiIncrementOptions::stop cut the simulation short; the
  /// committed prefix is complete and untainted (no increment optimized
  /// under a fired token is ever committed).
  bool stopped = false;
};

struct MultiIncrementOptions {
  /// Name of the strategy that optimizes each increment (one of
  /// strategyNames()).
  std::string strategy = "MH";
  /// Metric weights and per-strategy options, as in LifecycleOptions.
  DesignerOptions designer;
  /// If false, a rejected increment is skipped and the next one is tried
  /// (product management picks another feature); if true the simulation
  /// stops at the first rejection.
  bool stopAtFirstReject = false;
  /// Cooperative cancellation, polled between increments and re-checked
  /// after each increment's optimization: an increment whose improvement
  /// was cut short by the token is discarded, not frozen, so a deadline
  /// never silently commits degraded mappings. Null = run the full queue.
  const StopToken* stop = nullptr;
};

/// Implement the applications in `increments` (any kind; they are treated
/// as successive current applications) on top of the frozen
/// AppKind::Existing base of `sys`, one version at a time: each increment
/// is one runStrategy run from its Initial Mapping on the platform as it
/// stands, and an increment whose run ends feasible is frozen exactly as
/// the run scored it (its step reports the run's metrics and objective).
/// Throws std::invalid_argument for an unknown strategy name (listing the
/// valid names) or invalid options.
MultiIncrementResult runIncrementSequence(
    const SystemModel& sys, const FutureProfile& profile,
    const std::vector<ApplicationId>& increments,
    const MultiIncrementOptions& options = {});

}  // namespace ides
