// JobManager — the daemon's bounded job queue and worker pool.
//
// Jobs arrive as parsed JobSpecs (design: one strategy on one generated
// instance; sweep: a named paper sweep through the BatchRunner), queue
// FIFO behind an admission limit, and run on a fixed pool of worker
// threads — one RunContext and one StopToken per job, so every job has
// cooperative cancellation (DELETE /jobs/<id>) and an optional per-job
// deadline armed when the run starts. Progress flows from the optimizer's
// ProgressSink (design) or the per-instance completion hook (sweep) into
// the job's status fields under the manager mutex.
//
// Both job kinds route through the persistent SweepStore as a content-
// addressed result cache keyed by instanceFingerprint. A resubmitted
// identical sweep is answered from records with no re-optimization (the
// job status reports cache_hits vs executed), and completed instances
// always write through — the daemon doubles as the network-facing front of
// the sweep fabric. A design job is a one-instance batch run
// (designJobInstance) cached as a record of suite "design": an identical
// resubmit re-renders the stored record into the same bytes and its status
// reports cached:true, and `store ls/verify/gc` see design records like
// any other. Runs a StopToken ended early (deadline or cancel) are never
// cached — a partial result must not shadow the full one.
//
// Results are rendered deterministically (timing off): a design job's
// result JSON is byte-identical to `ides_cli design --json` for the same
// spec, and a sweep job's to the CLI's BENCH_sweep_<name>.json with
// --no-timing. Wall-clock lives in the job status, not the result.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/design_job.h"
#include "store/sweep_store.h"
#include "util/stop_token.h"

namespace ides {

struct SweepJobSpec {
  std::string sweep;              ///< namedSweep key, e.g. "quality"
  std::string scaleName = "smoke";
  int shards = 1;                 ///< 0 = all cores; at most 256
};

struct JobSpec {
  enum class Kind { Design, Sweep };
  Kind kind = Kind::Design;
  /// Run budget armed on the job's StopToken when execution starts
  /// (0 = none). A fired deadline ends the job with its best-so-far
  /// result and stopped=true — same semantics as `ides_cli --deadline`.
  double deadlineSeconds = 0.0;
  DesignJobSpec design;
  SweepJobSpec sweep;
};

/// Parses and validates a POST /jobs body. Strict: unknown type, unknown
/// field, unregistered strategy, unknown sweep/scale name or a wrong field
/// type all throw std::invalid_argument with a client-facing message.
JobSpec parseJobSpec(std::string_view body);

enum class JobState { Queued, Running, Done, Failed, Cancelled };
const char* toString(JobState state);

struct JobManagerOptions {
  int workers = 2;  ///< in [1, kMaxAnnealingThreads]
  /// Admission limit on WAITING jobs (running jobs do not count): a full
  /// queue rejects the submit (the daemon answers 503).
  std::size_t maxQueued = 32;
  /// SweepStore directory caching every job's results; empty = every job
  /// runs uncached. Design jobs are records of suite "design" (status
  /// reports cached:true on a hit, and the result bytes match the stored
  /// run's).
  std::string storeDir;
  /// Retention cap on TERMINAL jobs (done/failed/cancelled): whenever a
  /// job reaches a terminal state and the cap is exceeded, the oldest
  /// terminal jobs are evicted from the registry (status/result answer
  /// 404 afterwards). Queued and running jobs are never evicted. 0 keeps
  /// every job forever — the pre-cap behavior, for a short-lived daemon.
  std::size_t retainFinished = 256;
};

/// The numeric part of a "job-<n>" id; nullopt for anything else. Job ids
/// are assigned monotonically and never reused, so these numbers order
/// jobs by submission even across evictions — which is what makes an
/// evicted id still usable as an `after` pagination cursor.
std::optional<std::uint64_t> parseJobIdNumber(std::string_view id);

class JobManager {
 public:
  /// Starts the worker pool. Throws std::invalid_argument for workers
  /// outside [1, kMaxAnnealingThreads]; a worker thread that fails to
  /// start joins the started ones and rethrows (std::system_error).
  explicit JobManager(JobManagerOptions options);
  /// Drains (cancels queued, stops running, joins workers).
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  struct Submission {
    bool accepted = false;
    std::string id;     ///< "job-<n>" when accepted
    std::string error;  ///< reason when rejected (queue full / draining)
  };
  Submission submit(JobSpec spec);

  [[nodiscard]] std::optional<JobState> state(const std::string& id) const;

  /// Status JSON of one job; nullopt for an unknown id.
  [[nodiscard]] std::optional<std::string> statusJson(
      const std::string& id) const;

  /// Terminal result payload (design result JSON / sweep BENCH JSON);
  /// nullopt while the job is queued/running/failed or the id is unknown.
  [[nodiscard]] std::optional<std::string> resultJson(
      const std::string& id) const;

  /// Retained jobs (submission order) as {"jobs": [status...], "count":
  /// k, "retained": r, "evicted": e} — a window of up to `limit` jobs
  /// (0 = no limit) strictly after the id `after` (empty = from the
  /// start). When the window is truncated, "next_after" carries the last
  /// id included, so `?after=<next_after>` fetches the next page; an
  /// evicted or unknown `after` id still works because ids are compared
  /// numerically, never looked up.
  [[nodiscard]] std::string listJson(std::size_t limit = 0,
                                     std::string_view after = {}) const;

  /// Queued job: removed and marked cancelled. Running job: its StopToken
  /// fires and the job finishes as cancelled with a partial result. False
  /// for unknown ids and jobs already in a terminal state.
  bool cancel(const std::string& id);

  /// Graceful drain: reject further submits, cancel everything queued,
  /// fire the StopTokens of running jobs, join the workers. Idempotent.
  void drain();

  [[nodiscard]] std::size_t queuedCount() const;
  [[nodiscard]] std::size_t runningCount() const;
  /// Terminal jobs still retained (evicted ones no longer count).
  [[nodiscard]] std::size_t finishedCount() const;
  /// Terminal jobs evicted by the retention cap over the daemon's life.
  [[nodiscard]] std::size_t evictedCount() const;

 private:
  struct Job;

  void workerLoop();
  /// Executes `job` outside the mutex; returns the result payload.
  std::string execute(Job& job);
  [[nodiscard]] std::string statusJsonLocked(const Job& job) const;
  /// Evicts the oldest terminal jobs until the retention cap holds.
  /// Called under the mutex at every terminal transition.
  void gcLocked();

  JobManagerOptions options_;
  std::unique_ptr<SweepStore> store_;  ///< null when storeDir is empty

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool draining_ = false;
  std::uint64_t nextId_ = 1;
  std::size_t evicted_ = 0;
  std::deque<std::shared_ptr<Job>> queue_;
  /// Submission-ordered registry of every retained job: every job ever
  /// accepted, minus terminal jobs evicted by the retention cap.
  std::vector<std::shared_ptr<Job>> jobs_;
  std::map<std::string, std::shared_ptr<Job>, std::less<>> byId_;
  std::vector<std::thread> workers_;
};

}  // namespace ides
