// The paper's experiment sweeps as InstanceSuites.
//
// Each figure/ablation/extension driver used to hand-roll its own nested
// loops over (sizes × seeds × strategies); these builders express the same
// experiments as canonical instance lists for the BatchRunner, shared
// between the bench drivers and `ides_cli sweep`. The generator seeds and
// per-instance SA seeds reproduce the legacy loops exactly (suiteSeed =
// figure base + seed index, sa.seed = seed index + 1), so the migrated
// drivers report bit-identical objectives.
//
// SweepScale is the effort knob previously private to bench_common.h:
// smoke (CI), default, full (paper-style patience), selected via the
// IDES_BENCH_SCALE environment variable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "tgen/benchmark_suite.h"

namespace ides {

struct SweepScale {
  std::string name = "default";
  int seeds = 3;
  int saIterations = 12000;
  std::vector<std::size_t> sizes{40, 80, 160, 240, 320};
  std::size_t futureAppsPerInstance = 5;
};

/// Scale selected by IDES_BENCH_SCALE (smoke | default | full; anything
/// else runs the default scale, matching the legacy env behavior).
SweepScale sweepScale();
/// Scale by explicit name; throws std::invalid_argument for an unknown
/// name, listing the valid set (the strict path for CLI flags).
SweepScale sweepScaleNamed(const std::string& name);

/// The paper-scale experiment instance (slides 15-17): 10 nodes, 400
/// existing processes, current application of `current` processes, tneed
/// pinned to 12000 ticks per Tmin window.
SuiteConfig paperSuiteConfig(std::size_t current, std::size_t futureApps = 0);

/// Designer options for one sweep instance (SA budget from the scale,
/// chain seed as given — the legacy benches used seedIndex + 1).
DesignerOptions sweepDesignerOptions(const SweepScale& scale,
                                     std::uint64_t saSeed = 1);

/// Figure F1 — quality: sizes × seeds × {AH, MH, SA}, suiteSeed 1000+s.
InstanceSuite qualitySweep(const SweepScale& scale);
/// Figure F2 — runtime: same shape on fresh instances, suiteSeed 2000+s.
InstanceSuite runtimeSweep(const SweepScale& scale);
/// Figure F3 — future-fit: sizes capped at 240, {AH, MH}, each instance
/// embedding future applications and probing how many still map (extras
/// future_fit / future_samples), suiteSeed 3000+s.
InstanceSuite futureSweep(const SweepScale& scale);
/// Ablation A2 — objective-weight sensitivity: four weight cases × seeds,
/// MH at 240 processes with the future-fit probe, suiteSeed 5000+s.
InstanceSuite weightsSweep(const SweepScale& scale);
/// Extension E-INC — platform lifetime: seeds × {AH, MH} custom jobs
/// playing the multi-increment queue (extras accepted / queue),
/// suiteSeed 7000+s.
InstanceSuite incrementsSweep(const SweepScale& scale);

/// Names accepted by namedSweep, in presentation order.
std::vector<std::string> sweepNames();
/// Builder lookup by name ("quality", "runtime", "future", "weights",
/// "increments"); throws std::invalid_argument listing the valid names.
InstanceSuite namedSweep(const std::string& name, const SweepScale& scale);

/// Bump when a change makes previously stored results stale even though
/// the configuration fields hash the same — e.g. new generator semantics,
/// a different SA move kernel, or changed metric definitions. The epoch is
/// part of every instance fingerprint — sweep instances and the daemon's
/// design jobs (suite "design", serve/design_job.h) alike — so bumping it
/// makes the sweep store treat all old records as different content.
/// History: 2 — DesignerOptions grew the tabu field set (every fingerprint
/// hashes more fields, so epoch-1 records describe a narrower key).
inline constexpr std::uint64_t kSweepFingerprintEpoch = 2;

/// Stable 128-bit content fingerprint (32 hex chars) of one batch
/// instance: suite name, instance identity, the full generator config and
/// every result-relevant option, plus kSweepFingerprintEpoch. This is the
/// sweep store's record key, for sweep instances and design jobs alike.
/// Deliberately EXCLUDED are the knobs whose
/// result-neutrality the test suite defends — thread/shard counts,
/// speculation workers, trace recording — so a record computed at any
/// parallelism serves every other (the stored
/// wall-clock seconds refer to the recording run). Custom probes/jobs are
/// code and cannot be hashed; their presence is fingerprinted and their
/// identity is covered by the suite name + epoch.
std::string instanceFingerprint(const std::string& suiteName,
                                const BatchInstance& instance);

}  // namespace ides
