// One design request as data, shared by `ides_cli design` and the daemon.
//
// The serve-e2e guarantee is that a design job submitted over HTTP and the
// same job run through the CLI produce byte-identical result JSON. That
// only holds if both paths build the generated suite and the designer
// options from the spec through ONE piece of code — this one. The JSON
// rendering is deterministic by default (wall-clock excluded; the daemon
// reports runtime in the job status instead), so two runs of the same spec
// diff clean.
#pragma once

#include <cstdint>
#include <string>

#include "core/incremental_designer.h"

namespace ides {

/// The `ides_cli design` knobs as a value type (generated suites only —
/// the daemon does not accept model files).
struct DesignJobSpec {
  std::size_t nodes = 10;
  std::size_t existing = 400;
  std::size_t current = 160;
  std::uint64_t seed = 1;
  std::string strategy = "MH";
  int saIterations = 0;  ///< 0 = SaOptions default
  int restarts = 4;      ///< PSA chains
  int threads = 0;       ///< PSA threads, 0 = all cores
  int specWorkers = 0;   ///< speculative eval workers (0 = off / PSA auto)
};

/// DesignerOptions derivation, identical to the CLI's flag mapping.
DesignerOptions designJobOptions(const DesignJobSpec& spec);

/// Bump when a change makes previously cached design results stale even
/// though the spec fields hash the same (generator semantics, strategy
/// kernels, metric definitions). Independent of kSweepFingerprintEpoch:
/// the two caches key different payloads.
inline constexpr std::uint64_t kDesignFingerprintEpoch = 1;

/// Stable 128-bit content fingerprint (32 hex chars) of one design job:
/// every result-relevant spec field plus kDesignFingerprintEpoch, hashed
/// the same two-lane FNV way as sweep instances. Deliberately EXCLUDED are
/// the result-neutral knobs the test suite defends — threads and
/// specWorkers — so a result computed at any parallelism serves every
/// other.
std::string designJobFingerprint(const DesignJobSpec& spec);

struct DesignJobResult {
  RunReport result;
  /// validateSchedule over frozen + current schedules, like `cli design`.
  bool validationOk = false;
};

/// Generates the suite (paper tneed override, like the CLI), resolves the
/// strategy by registry name and runs it under `context` (stop token /
/// progress of the caller). Throws std::invalid_argument for an unknown
/// strategy or invalid options.
DesignJobResult runDesignJob(const DesignJobSpec& spec, RunContext& context);

/// Flat JSON rendering (%.6g doubles, BENCH field names). `timing` adds
/// the wall-clock "seconds" field; off is the deterministic form the CLI
/// and the daemon diff against each other.
std::string designResultJson(const DesignJobResult& r, bool timing = false);

}  // namespace ides
