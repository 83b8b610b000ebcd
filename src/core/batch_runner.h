// BatchRunner: deterministic sharded execution of instance suites.
//
// The paper's figures are strategy comparisons over suites of generated
// instances (tgen presets × seeds × strategies). An InstanceSuite is the
// flat, canonically ordered list of those instances; the runner shards it
// across a thread pool and collects one result per instance back into
// canonical order. Every instance is self-contained — its own generated
// system, evaluator, strategy run by name through runStrategy, and
// deterministically derived seeds — so the aggregated report (and the
// BENCH_*.json rendering) is bit-identical for ANY shard count; only the
// wall-clock fields differ between runs (the JSON renderer can omit them,
// which is what the determinism tests compare).
//
// Cancellation: a StopToken checked before each instance claim and threaded
// into the running optimizer. A fired token yields a well-formed partial
// report — completed instances keep their full results, unstarted ones are
// marked not-run, and the JSON rendering stays parseable with accurate
// completed/total counts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "tgen/benchmark_suite.h"
#include "util/stop_token.h"

namespace ides {

struct BatchInstance;
class IncrementalDesigner;

/// Ordered numeric side-channel of one instance's result (e.g. future-fit
/// counts from a probe, lifetime counters from a custom job). Rendered
/// after the standard report fields, in insertion order.
struct BatchExtras {
  std::vector<std::pair<std::string, double>> fields;
  void add(std::string name, double value) {
    fields.emplace_back(std::move(name), value);
  }
};

/// What one executed instance produced.
struct InstanceOutcome {
  /// Standard optimizer report (default job). Custom jobs that do not run
  /// a single optimizer leave `hasReport` false and publish via `extras`.
  RunReport report;
  bool hasReport = true;
  BatchExtras extras;
};

/// Per-instance hook of the default job, run after the optimizer with the
/// instance's own designer (e.g. the future-fit probe of figure F3, or a
/// design job's schedule validation). Must be deterministic — its extras
/// are part of the canonical aggregate.
using BatchProbe = std::function<void(const IncrementalDesigner& designer,
                                      const RunReport& report,
                                      BatchExtras& extras)>;

/// Full replacement job for instances that are not "one optimizer on one
/// generated suite" (e.g. the multi-increment lifetime experiment).
using BatchJob =
    std::function<InstanceOutcome(const BatchInstance& instance,
                                  const StopToken* stop)>;

/// One unit of work: a generated instance plus the strategy to run on it.
struct BatchInstance {
  /// Unique canonical id, e.g. "n160/s0/SA" (the JSON record key).
  std::string id;
  /// Aggregation group (figure x-axis bucket), e.g. "n160" or a weight-case
  /// name.
  std::string group;
  /// Numeric axis value of the group (e.g. current-application processes).
  double axis = 0.0;
  /// Seed index within the group (the paper's "seeds per point").
  int seedIndex = 0;
  /// tgen generator seed for buildSuite.
  std::uint64_t suiteSeed = 1;
  SuiteConfig config;
  /// Strategy name (one of strategyNames()) the default job runs.
  std::string strategy = "MH";
  /// Fully specified options (sa.seed already derived per instance).
  DesignerOptions options;
  /// Optional extras hook on the default job.
  BatchProbe probe;
  /// Optional full replacement job (ignores config/strategy/options unless
  /// it chooses to read them).
  BatchJob job;
};

/// A named, canonically ordered list of instances. The order instances are
/// added IS the canonical aggregation order.
class InstanceSuite {
 public:
  explicit InstanceSuite(std::string name) : name_(std::move(name)) {}

  void add(BatchInstance instance) {
    instances_.push_back(std::move(instance));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<BatchInstance>& instances() const {
    return instances_;
  }
  [[nodiscard]] std::size_t size() const { return instances_.size(); }

 private:
  std::string name_;
  std::vector<BatchInstance> instances_;
};

struct InstanceResult {
  std::size_t index = 0;  ///< canonical position in the suite
  bool ran = false;       ///< false when cancellation skipped the instance
  /// True when the outcome came out of a ResultCache instead of a fresh
  /// run. Cached outcomes carry the full deterministic record (report
  /// fields + extras + original wall-clock seconds) but not the mapping or
  /// schedule — aggregation never reads those, re-runs do.
  bool cached = false;
  /// Identity copied from the instance, so the report (and its JSON
  /// rendering) stays self-contained after the suite is gone.
  std::string id;
  std::string group;
  double axis = 0.0;
  int seedIndex = 0;
  std::uint64_t suiteSeed = 0;
  InstanceOutcome outcome;
};

struct BatchReport {
  std::string suiteName;
  /// One entry per suite instance, in canonical order (ran or not).
  std::vector<InstanceResult> results;
  std::size_t completed = 0;
  /// How many of `completed` were served from the ResultCache. Not part of
  /// the JSON rendering — a resumed run and a from-scratch run must render
  /// byte-identically.
  std::size_t cacheHits = 0;
  bool stopped = false;
};

/// Persistent result reuse hook of the batch runner (implemented by the
/// sweep store, src/store/sweep_store.h). Both calls may come from any
/// shard thread concurrently; implementations synchronize internally.
class ResultCache {
 public:
  virtual ~ResultCache() = default;

  /// Fill `outcome` with a previously stored result for `instance` and
  /// return true, or return false to make the runner execute it. Hits must
  /// reproduce the deterministic record fields exactly — the runner trusts
  /// them into the canonical aggregate.
  virtual bool lookup(const BatchInstance& instance,
                      InstanceOutcome& outcome) = 0;

  /// Offer a freshly completed outcome for persistence. Implementations
  /// decide what is cacheable (the sweep store refuses outcomes cut short
  /// by a stop token — a partial result must never shadow the full one).
  virtual void store(const BatchInstance& instance,
                     const InstanceOutcome& outcome) = 0;
};

struct BatchOptions {
  /// Shard worker threads; 0 = std::thread::hardware_concurrency(), at
  /// most kMaxAnnealingThreads. Aggregates are bit-identical for every
  /// value (asserted in tests).
  int shards = 1;
  const StopToken* stop = nullptr;
  /// Optional persistent result reuse (resume / figure regeneration);
  /// null = every instance runs fresh.
  ResultCache* cache = nullptr;
  /// Per-completed-instance notification, serialized across shards (safe
  /// to print / request stop from).
  std::function<void(const InstanceResult&)> onInstanceDone;
};

/// Executes one instance exactly as the shard workers do: the custom job
/// when set, otherwise generate + resolve strategy + optimize + probe.
/// Exposed for the paths that run one instance outside a runBatch call but
/// must produce identical records: the cross-process work queue and the
/// design job (serve/design_job.h), whose live status `progress` feeds.
/// Custom jobs ignore `progress`.
InstanceOutcome runBatchInstance(const BatchInstance& instance,
                                 const StopToken* stop,
                                 const ProgressSink& progress = {});

/// Runs every instance and aggregates in canonical order. Throws
/// std::invalid_argument for shards outside [0, kMaxAnnealingThreads];
/// rethrows the first instance exception after the pool drains. A shard
/// thread that fails to start stops the hand-out, joins the started
/// shards and rethrows (std::system_error).
BatchReport runBatch(const InstanceSuite& suite,
                     const BatchOptions& options = {});

struct BatchJsonOptions {
  /// Scale tag recorded in the header (BENCH_*.json convention).
  std::string scale = "default";
  /// Include wall-clock fields. Off = fully deterministic rendering:
  /// byte-identical across runs and shard counts.
  bool timing = true;
};

/// Renders a report in the BENCH_*.json layout of bench_common.h (flat
/// records, %.6g numbers, stable key order); `benchName` fills the "bench"
/// header field. Records appear in canonical order; instances skipped by
/// cancellation are omitted from "results" but counted in the header.
std::string batchReportJson(const std::string& benchName,
                            const BatchReport& report,
                            const BatchJsonOptions& options = {});

/// BENCH_<name>.json destination under IDES_BENCH_JSON_DIR (default: the
/// working directory) — the one publishing convention shared by the bench
/// drivers and the CLI.
std::string benchJsonPath(const std::string& name);

/// Writes a pre-rendered payload to benchJsonPath(name); returns false
/// (without throwing) when the file cannot be opened.
bool writeBenchJsonFile(const std::string& name, const std::string& payload);

/// Hash index over a report's completed instances for figure aggregation.
/// Built once per report, it answers the drivers' (group, seed[, strategy])
/// lookups in O(1) instead of the old per-lookup linear scan over the whole
/// result vector (quadratic per figure at full scale). Holds pointers into
/// the report: the report must outlive the index.
class BatchIndex {
 public:
  explicit BatchIndex(const BatchReport& report);

  /// Completed instance of (group, seed[, strategy]), or null. Strategy ""
  /// matches any — the first in canonical order, exactly like the old
  /// linear scan (custom-job instances have no report/strategy).
  [[nodiscard]] const InstanceResult* find(
      const std::string& group, int seed,
      const std::string& strategy = "") const;

 private:
  std::unordered_map<std::string, const InstanceResult*> byKey_;
};

}  // namespace ides
