// One design request as data, shared by `ides_cli design` and the daemon.
//
// The serve-e2e guarantee is that a design job submitted over HTTP and the
// same job run through the CLI produce byte-identical result JSON. That
// only holds if both paths build the generated suite and the designer
// options from the spec through ONE piece of code — this one. A design job
// is a one-instance batch run (designJobInstance through runBatchInstance),
// which the daemon caches as a sweep-store record of suite kDesignJobSuite.
// The JSON rendering is deterministic by default (wall-clock excluded; the
// daemon reports runtime in the job status instead), so two runs of the
// same spec diff clean, and so does a result re-rendered from its record.
#pragma once

#include <cstdint>
#include <string>

#include "core/batch_runner.h"
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

/// DesignerOptions derivation: the one mapping from the CLI's flags and
/// the daemon's spec fields to the designer.
DesignerOptions designJobOptions(const DesignJobSpec& spec);

/// Suite name of design-job records in the sweep store (`store ls` lists
/// them as suite "design").
inline constexpr char kDesignJobSuite[] = "design";

/// The spec as a one-instance batch run: the generated suite (paper tneed
/// override), the spec's seed, strategy and designJobOptions, an id naming
/// the spec ("8x60+24/s3/MH"), and a probe that validates the frozen plus
/// current schedules into the extra "validation_ok" (1 or 0). Its
/// fingerprint hashes the options, so the result-neutral threads and
/// specWorkers share one record.
BatchInstance designJobInstance(const DesignJobSpec& spec);

struct DesignJobResult {
  RunReport result;
  /// validateSchedule over frozen + current schedules, like `cli design`.
  bool validationOk = false;
};

/// The design view of a designJobInstance outcome, freshly run or loaded
/// from its store record (which holds every field designResultJson reads).
DesignJobResult designJobResult(InstanceOutcome outcome);

/// designJobResult(runBatchInstance(designJobInstance(spec), ...)) with the
/// caller's stop token and progress sink. Throws std::invalid_argument for
/// an unknown strategy or invalid options.
DesignJobResult runDesignJob(const DesignJobSpec& spec,
                             const RunContext& context);

/// Flat JSON rendering (%.6g doubles, BENCH field names). `timing` adds
/// the wall-clock "seconds" field; off is the deterministic form the CLI
/// and the daemon diff against each other.
std::string designResultJson(const DesignJobResult& r, bool timing = false);

}  // namespace ides
