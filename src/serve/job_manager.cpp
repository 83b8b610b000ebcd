#include "serve/job_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/batch_runner.h"
#include "core/batch_suites.h"
#include "core/optimizer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/json_reader.h"
#include "util/log.h"

namespace ides {

namespace {

// Job lifecycle telemetry. The gauge tracks the live queue depth; the
// counter counts state transitions (queued at submit, running at pickup,
// done/failed/cancelled at the terminal edge), so rates and in-flight
// levels are both scrapeable.
Gauge& queueDepthGauge() {
  static Gauge& gauge = telemetry().gauge(
      "ides_serve_queue_depth", "Jobs currently waiting in the submit queue");
  return gauge;
}

void countJobState(const char* state) {
  telemetry()
      .counter("ides_serve_jobs_total", "Job state transitions",
               {{"state", state}})
      .add();
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Typed field extraction with "which key, what went wrong" messages —
/// submit-time errors are the API's main feedback channel.
const JsonValue* fieldOrNull(const JsonValue& root, std::string_view key) {
  return root.find(key);
}

std::string requireString(const JsonValue& root, std::string_view key) {
  const JsonValue* v = root.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::String) {
    throw std::invalid_argument("field \"" + std::string(key) +
                                "\" must be a string");
  }
  return v->stringValue;
}

std::string optionalString(const JsonValue& root, std::string_view key,
                           std::string fallback) {
  const JsonValue* v = fieldOrNull(root, key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::String) {
    throw std::invalid_argument("field \"" + std::string(key) +
                                "\" must be a string");
  }
  return v->stringValue;
}

double optionalNumber(const JsonValue& root, std::string_view key,
                      double fallback) {
  const JsonValue* v = fieldOrNull(root, key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::Number) {
    throw std::invalid_argument("field \"" + std::string(key) +
                                "\" must be a number");
  }
  return v->numberValue;
}

/// An optional integer field of type T within [lo, hi], range-checked
/// before the cast: a JSON number is a double, and casting one that does
/// not fit T wraps (-5 into a size_t) or is undefined (1e300 into any
/// integer). The upper bound is also capped at 2^53 - 1: below 2^53 a
/// double holds every integer exactly, while 2^53 is also what 2^53 + 1
/// reads as, so a value the JSON reader rounded is refused instead of
/// silently changed.
template <typename T>
T optionalInt(const JsonValue& root, std::string_view key, T fallback, T lo,
              T hi = std::numeric_limits<T>::max()) {
  const double value =
      optionalNumber(root, key, static_cast<double>(fallback));
  if (std::trunc(value) != value) {
    throw std::invalid_argument("field \"" + std::string(key) +
                                "\" must be an integer");
  }
  constexpr double kExactLimit = 9007199254740991.0;  // 2^53 - 1
  const double top = std::min(static_cast<double>(hi), kExactLimit);
  if (value < static_cast<double>(lo)) {
    throw std::invalid_argument(std::string(key) + " must be >= " +
                                std::to_string(lo));
  }
  if (value > top) {
    throw std::invalid_argument(std::string(key) + " must be <= " +
                                std::to_string(static_cast<std::int64_t>(top)));
  }
  return static_cast<T>(value);
}

void rejectUnknownKeys(const JsonValue& root,
                       const std::vector<std::string_view>& known) {
  for (const auto& [key, value] : root.members) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("unknown field \"" + key + "\"");
    }
  }
}

}  // namespace

JobSpec parseJobSpec(std::string_view body) {
  JsonValue root;
  try {
    root = parseJson(body);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("malformed JSON: ") + e.what());
  }
  if (!root.isObject()) {
    throw std::invalid_argument("job spec must be a JSON object");
  }

  JobSpec spec;
  const std::string type = requireString(root, "type");
  spec.deadlineSeconds = optionalNumber(root, "deadline_seconds", 0.0);
  if (spec.deadlineSeconds < 0.0) {
    throw std::invalid_argument("deadline_seconds must be >= 0");
  }

  if (type == "design") {
    spec.kind = JobSpec::Kind::Design;
    rejectUnknownKeys(root,
                      {"type", "deadline_seconds", "nodes", "existing",
                       "current", "seed", "strategy", "sa_iters", "restarts",
                       "threads", "spec_workers"});
    DesignJobSpec& d = spec.design;
    // The same bounds as ides_cli's flags, except nodes >= 2; the thread
    // counts stop at the cap validateOptions enforces.
    d.nodes = optionalInt<std::size_t>(root, "nodes", 10, 2);
    d.existing = optionalInt<std::size_t>(root, "existing", 400, 0);
    d.current = optionalInt<std::size_t>(root, "current", 160, 0);
    d.seed = optionalInt<std::uint64_t>(root, "seed", 1, 0);
    d.strategy = optionalString(root, "strategy", "MH");
    d.saIterations = optionalInt(root, "sa_iters", 0, 0);
    d.restarts = optionalInt(root, "restarts", 4, 0);
    d.threads = optionalInt(root, "threads", 0, 0, kMaxAnnealingThreads);
    d.specWorkers =
        optionalInt(root, "spec_workers", 0, 0, kMaxAnnealingThreads);
    requireStrategy(d.strategy);
    // Fail configuration errors at submit time, not when a worker picks
    // the job up hours later.
    validateOptions(designJobOptions(d));
    return spec;
  }

  if (type == "sweep") {
    spec.kind = JobSpec::Kind::Sweep;
    rejectUnknownKeys(
        root, {"type", "deadline_seconds", "sweep", "scale", "shards"});
    SweepJobSpec& s = spec.sweep;
    s.sweep = requireString(root, "sweep");
    s.scaleName = optionalString(root, "scale", "smoke");
    s.shards = optionalInt(root, "shards", 1, 0, kMaxAnnealingThreads);
    const std::vector<std::string> names = sweepNames();
    if (std::find(names.begin(), names.end(), s.sweep) == names.end()) {
      std::string known;
      for (const std::string& n : names) {
        known += known.empty() ? n : ", " + n;
      }
      throw std::invalid_argument("unknown sweep \"" + s.sweep +
                                  "\" (available: " + known + ")");
    }
    (void)sweepScaleNamed(s.scaleName);  // throws listing the valid names
    return spec;
  }

  throw std::invalid_argument("unknown job type \"" + type +
                              "\" (available: design, sweep)");
}

std::optional<std::uint64_t> parseJobIdNumber(std::string_view id) {
  if (id.rfind("job-", 0) != 0) return std::nullopt;
  id.remove_prefix(4);
  if (id.empty() || id.size() > 18) return std::nullopt;
  std::uint64_t number = 0;
  for (const char c : id) {
    if (c < '0' || c > '9') return std::nullopt;
    number = number * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return number;
}

namespace {

bool isTerminal(JobState state) {
  return state == JobState::Done || state == JobState::Failed ||
         state == JobState::Cancelled;
}

}  // namespace

const char* toString(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

struct JobManager::Job {
  std::string id;
  JobSpec spec;
  JobState state = JobState::Queued;
  StopToken stop;
  bool cancelRequested = false;

  // Progress, updated by the executing worker under the manager mutex.
  std::string phase;
  std::size_t step = 0;
  std::size_t total = 0;
  double cost = 0.0;

  std::chrono::steady_clock::time_point startedAt{};
  double runtimeSeconds = 0.0;
  bool stopped = false;              ///< a StopToken ended the run early
  bool cached = false;               ///< design: result served from store
  std::size_t cacheHits = 0;         ///< sweep: instances from the store
  std::size_t executed = 0;          ///< sweep: instances optimized fresh
  std::string result;                ///< terminal payload (Done/Cancelled)
  std::string error;                 ///< Failed only
};

JobManager::JobManager(JobManagerOptions options)
    : options_(std::move(options)) {
  if (options_.workers < 1 || options_.workers > kMaxAnnealingThreads) {
    throw std::invalid_argument("JobManager: workers must lie in [1, " +
                                std::to_string(kMaxAnnealingThreads) + "]");
  }
  if (!options_.storeDir.empty()) {
    store_ = std::make_unique<SweepStore>(options_.storeDir);
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  try {
    for (int i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  } catch (...) {
    // A worker failed to start: wind down the ones that did, then report
    // the failure instead of destroying joinable threads.
    drain();
    throw;
  }
}

JobManager::~JobManager() { drain(); }

JobManager::Submission JobManager::submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Submission submission;
  if (draining_) {
    submission.error = "daemon is draining";
    return submission;
  }
  if (queue_.size() >= options_.maxQueued) {
    submission.error = "job queue is full (" +
                       std::to_string(options_.maxQueued) +
                       " jobs waiting)";
    return submission;
  }
  auto job = std::make_shared<Job>();
  job->id = "job-" + std::to_string(nextId_++);
  job->spec = std::move(spec);
  queue_.push_back(job);
  jobs_.push_back(job);
  byId_.emplace(job->id, job);
  submission.accepted = true;
  submission.id = job->id;
  countJobState("queued");
  queueDepthGauge().set(static_cast<std::int64_t>(queue_.size()));
  wake_.notify_one();
  return submission;
}

std::optional<JobState> JobManager::state(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = byId_.find(id);
  if (it == byId_.end()) return std::nullopt;
  return it->second->state;
}

std::string JobManager::statusJsonLocked(const Job& job) const {
  std::string out = "{\n";
  out += "  \"id\": " + jsonQuote(job.id) + ",\n";
  out += "  \"type\": ";
  out += job.spec.kind == JobSpec::Kind::Design ? "\"design\"" : "\"sweep\"";
  out += ",\n";
  out += "  \"state\": " + jsonQuote(toString(job.state)) + ",\n";
  out += "  \"phase\": " + jsonQuote(job.phase) + ",\n";
  out += "  \"step\": " + std::to_string(job.step) + ",\n";
  out += "  \"total\": " + std::to_string(job.total) + ",\n";
  out += "  \"cost\": " + num(job.cost) + ",\n";
  if (job.spec.kind == JobSpec::Kind::Sweep) {
    out += "  \"cache_hits\": " + std::to_string(job.cacheHits) + ",\n";
    out += "  \"executed\": " + std::to_string(job.executed) + ",\n";
  } else {
    out += std::string("  \"cached\": ") + (job.cached ? "true" : "false") +
           ",\n";
  }
  out += std::string("  \"stopped\": ") + (job.stopped ? "true" : "false");
  if (job.state != JobState::Queued) {
    const double seconds =
        job.state == JobState::Running
            ? std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - job.startedAt)
                  .count()
            : job.runtimeSeconds;
    out += ",\n  \"runtime_seconds\": " + num(seconds);
  }
  if (!job.error.empty()) {
    out += ",\n  \"error\": " + jsonQuote(job.error);
  }
  out += "\n}\n";
  return out;
}

std::optional<std::string> JobManager::statusJson(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = byId_.find(id);
  if (it == byId_.end()) return std::nullopt;
  return statusJsonLocked(*it->second);
}

std::optional<std::string> JobManager::resultJson(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = byId_.find(id);
  if (it == byId_.end() || it->second->result.empty()) return std::nullopt;
  return it->second->result;
}

std::string JobManager::listJson(std::size_t limit,
                                 std::string_view after) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // The cursor is a number comparison, not a registry lookup, so a page
  // boundary that has since been evicted still resumes correctly.
  const std::uint64_t afterNumber =
      after.empty() ? 0 : parseJobIdNumber(after).value_or(0);
  std::size_t begin = 0;
  while (begin < jobs_.size() &&
         parseJobIdNumber(jobs_[begin]->id).value_or(0) <= afterNumber) {
    ++begin;
  }
  const std::size_t available = jobs_.size() - begin;
  const std::size_t count =
      limit == 0 ? available : std::min(limit, available);

  std::string out = "{\"jobs\": [";
  for (std::size_t i = 0; i < count; ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += statusJsonLocked(*jobs_[begin + i]);
  }
  out += "], \"count\": " + std::to_string(count) +
         ", \"retained\": " + std::to_string(jobs_.size()) +
         ", \"evicted\": " + std::to_string(evicted_);
  if (count < available) {
    out += ", \"next_after\": " + jsonQuote(jobs_[begin + count - 1]->id);
  }
  out += "}\n";
  return out;
}

bool JobManager::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = byId_.find(id);
  if (it == byId_.end()) return false;
  Job& job = *it->second;
  if (job.state == JobState::Queued) {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const std::shared_ptr<Job>& j) {
                                  return j->id == id;
                                }),
                 queue_.end());
    job.state = JobState::Cancelled;
    job.cancelRequested = true;
    countJobState("cancelled");
    queueDepthGauge().set(static_cast<std::int64_t>(queue_.size()));
    gcLocked();
    return true;
  }
  if (job.state == JobState::Running) {
    job.cancelRequested = true;
    job.stop.requestStop();
    return true;
  }
  return false;  // already terminal
}

void JobManager::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      // Second caller (destructor after an explicit drain): workers are
      // already winding down; fall through to join below.
    }
    draining_ = true;
    for (const auto& job : queue_) {
      job->state = JobState::Cancelled;
      job->cancelRequested = true;
      countJobState("cancelled");
    }
    queue_.clear();
    queueDepthGauge().set(0);
    gcLocked();
    for (const auto& job : jobs_) {
      if (job->state == JobState::Running) job->stop.requestStop();
    }
    wake_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t JobManager::queuedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t JobManager::runningCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& job : jobs_) {
    if (job->state == JobState::Running) ++count;
  }
  return count;
}

std::size_t JobManager::finishedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& job : jobs_) {
    if (isTerminal(job->state)) ++count;
  }
  return count;
}

std::size_t JobManager::evictedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

void JobManager::gcLocked() {
  if (options_.retainFinished == 0) return;  // retention disabled
  std::size_t terminal = 0;
  for (const auto& job : jobs_) {
    if (isTerminal(job->state)) ++terminal;
  }
  auto it = jobs_.begin();
  while (terminal > options_.retainFinished && it != jobs_.end()) {
    if (!isTerminal((*it)->state)) {
      ++it;  // queued/running jobs are immune regardless of age
      continue;
    }
    byId_.erase((*it)->id);
    it = jobs_.erase(it);
    --terminal;
    ++evicted_;
  }
}

void JobManager::workerLoop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      job = queue_.front();
      queue_.pop_front();
      job->state = JobState::Running;
      countJobState("running");
      queueDepthGauge().set(static_cast<std::int64_t>(queue_.size()));
      job->startedAt = std::chrono::steady_clock::now();
      // The deadline is a RUN budget: armed when execution starts, not at
      // submission — a job must not burn its budget waiting in the queue.
      if (job->spec.deadlineSeconds > 0.0) {
        job->stop.setTimeout(job->spec.deadlineSeconds);
      }
    }

    std::string result;
    std::string error;
    {
      const TraceSpan span(
          "job:" + job->id +
              (job->spec.kind == JobSpec::Kind::Design ? ":design"
                                                       : ":sweep"),
          "serve");
      try {
        result = execute(*job);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    job->runtimeSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              job->startedAt)
                              .count();
    if (!error.empty()) {
      job->state = JobState::Failed;
      job->error = error;
    } else {
      job->state =
          job->cancelRequested ? JobState::Cancelled : JobState::Done;
      job->result = std::move(result);
    }
    countJobState(toString(job->state));
    telemetry()
        .histogram("ides_serve_job_seconds",
                   "Job wall-time from pickup to terminal state",
                   {0.01, 0.05, 0.2, 1.0, 5.0, 30.0, 120.0, 600.0})
        .observe(job->runtimeSeconds);
    gcLocked();
  }
}

std::string JobManager::execute(Job& job) {
  if (job.spec.kind == JobSpec::Kind::Design) {
    // A design job is a one-instance batch run, cached in the store like a
    // sweep instance: a hit re-renders the record, which holds every field
    // the result JSON reads, so the bytes match the fresh run exactly.
    const BatchInstance instance = designJobInstance(job.spec.design);
    std::optional<SweepStoreCache> cache;
    if (store_ != nullptr) {
      cache.emplace(*store_, kDesignJobSuite, /*reuse=*/true);
    }
    InstanceOutcome outcome;
    const bool hit = cache.has_value() && cache->lookup(instance, outcome);
    if (cache.has_value()) {
      telemetry()
          .counter("ides_serve_design_cache_total",
                   "Design-job result cache lookups",
                   {{"result", hit ? "hit" : "miss"}})
          .add();
    }
    if (!hit) {
      outcome = runBatchInstance(
          instance, &job.stop, [this, &job](const ProgressEvent& event) {
            std::lock_guard<std::mutex> lock(mutex_);
            job.phase = std::string(event.phase);
            job.step = event.step;
            job.total = event.total;
            job.cost = event.cost;
          });
    }
    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.cached = hit;
      if (hit) job.phase = "cached";
      job.stopped = outcome.report.stopped;
      job.cost = outcome.report.objective;
      cancelled = job.cancelRequested;
    }
    // The store refuses a stopped run itself; a cancel that landed after
    // the run finished is not stored either. A failed write must not fail
    // the job that just computed a good result.
    if (cache.has_value() && !hit && !cancelled) {
      try {
        cache->store(instance, outcome);
      } catch (const std::exception& e) {
        IDES_LOG_AT(LogLevel::Warn)
            << job.id << ": design result not stored: " << e.what();
      }
    }
    return designResultJson(designJobResult(std::move(outcome)));
  }

  // Sweep job: named suite through the batch runner, store-cached.
  const SweepJobSpec& spec = job.spec.sweep;
  const SweepScale scale = sweepScaleNamed(spec.scaleName);
  const InstanceSuite suite = namedSweep(spec.sweep, scale);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.phase = "sweep";
    job.total = suite.size();
  }

  std::optional<SweepStoreCache> cache;
  if (store_ != nullptr) {
    // Reuse ON is the whole point: an identical resubmitted job is a
    // cache hit answered from records, no optimizer runs.
    cache.emplace(*store_, suite.name(), /*reuse=*/true);
  }

  BatchOptions options;
  options.shards = spec.shards;
  options.stop = &job.stop;
  options.cache = cache.has_value() ? &*cache : nullptr;
  options.onInstanceDone = [this, &job,
                            &cache](const InstanceResult& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++job.step;
    if (r.outcome.hasReport) job.cost = r.outcome.report.objective;
    if (cache.has_value()) job.cacheHits = cache->hits();
  };

  const BatchReport report = runBatch(suite, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.stopped = report.stopped;
    job.cacheHits = report.cacheHits;
    job.executed = report.completed - report.cacheHits;
  }
  BatchJsonOptions json;
  json.scale = scale.name;
  json.timing = false;  // deterministic: diffs clean against the CLI
  return batchReportJson("sweep_" + spec.sweep, report, json);
}

}  // namespace ides
