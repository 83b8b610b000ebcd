// The paper's experiment sweeps as InstanceSuites, and their figures.
//
// Each named sweep is a canonical instance list for the BatchRunner: the
// paper's figures F1 quality, F2 runtime and F3 future fit (slides 15-17),
// ablation A2 and extension E-INC. `ides_cli sweep --suite <name>` runs one,
// publishes its BENCH_sweep_<name>.json record and prints its figure
// (sweepFigure): per-point summary lines, a table, a CSV block, an ASCII
// chart where the paper has one, and the shape the paper leads us to
// expect. Generator seeds are suiteSeed = sweep base + seed index and the
// SA chain seed is seed index + 1.
//
// SweepScale is the effort knob: smoke (CI), default, full (paper-style
// patience), chosen by `--scale`.
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

/// Scale by name (smoke | default | full); throws std::invalid_argument
/// for an unknown name, listing the valid set.
SweepScale sweepScaleNamed(const std::string& name);

/// The paper-scale experiment instance (slides 15-17): 10 nodes, 400
/// existing processes, current application of `current` processes, tneed
/// pinned to 12000 ticks per Tmin window.
SuiteConfig paperSuiteConfig(std::size_t current, std::size_t futureApps = 0);

/// Designer options for one sweep instance (SA budget from the scale,
/// chain seed as given — the legacy benches used seedIndex + 1).
DesignerOptions sweepDesignerOptions(const SweepScale& scale,
                                     std::uint64_t saSeed = 1);

/// Figure F1 — quality (paper slide 15): sizes × seeds × {AH, MH, SA},
/// suiteSeed 1000+s. The figure is each strategy's signed % deviation from
/// the best cost found on the instance; an instance whose best is not
/// positive is left out of the means (a size with none reads n/a).
/// Expected: AH far above MH wherever the current application loads the
/// system; MH within a few percent of the best.
InstanceSuite qualitySweep(const SweepScale& scale);
/// Figure F2 — runtime (slide 16): the same shape on fresh instances,
/// suiteSeed 2000+s. Expected: SA orders of magnitude above MH, MH above
/// AH, all growing with the size. Shards > 1 time strategies concurrently
/// and inflate the seconds; the evaluation counts are shard-invariant.
InstanceSuite runtimeSweep(const SweepScale& scale);
/// Figure F3 — future fit (slide 17): sizes capped at 240, {AH, MH}, each
/// instance embedding future applications of 80 processes and probing how
/// many still map (extras future_fit / future_samples), suiteSeed 3000+s.
/// Expected: MH keeps the rate high; AH's collapses as the size grows.
InstanceSuite futureSweep(const SweepScale& scale);
/// Ablation A2 — objective-weight sensitivity: four weight cases × seeds,
/// MH at 240 processes with the future-fit probe, suiteSeed 5000+s. The
/// paper does not give the weights (we use w1 = 1, w2 = 2). Expected:
/// w2 = 0 collapses C2P and the future-fit rate; any w2 >= 1 protects
/// both.
InstanceSuite weightsSweep(const SweepScale& scale);
/// Extension E-INC — platform lifetime: seeds × {AH, MH} custom jobs, each
/// implementing a queue of applications version after version (mapped
/// with the policy, then frozen) and counting how many the platform
/// absorbs (extras accepted / queue), suiteSeed 7000+s. An honest neutral
/// result: both policies saturate at a similar count, as MH protects the
/// profile's hypothetical demand, which only sometimes matches the next
/// concrete increment. The future-aware advantage shows when the future
/// is characterized well (F3), not unconditionally.
InstanceSuite incrementsSweep(const SweepScale& scale);

/// Names accepted by namedSweep and sweepFigure, in presentation order.
std::vector<std::string> sweepNames();
/// Builder lookup by name ("quality", "runtime", "future", "weights",
/// "increments"); throws std::invalid_argument listing the valid names.
InstanceSuite namedSweep(const std::string& name, const SweepScale& scale);
/// The figure of a named sweep's report, as text: a title and question
/// line, per-point summary lines, the table, its CSV block (after a
/// "CSV:" line), an ASCII chart for F1-F3, and the shape check. Everything
/// is read from the report — its points, seeds and cases in canonical
/// order — and instances that did not run are left out, so a partial or
/// merged report renders what completed. Throws std::invalid_argument for
/// an unknown name, like namedSweep.
std::string sweepFigure(const std::string& name, const BatchReport& report);

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
