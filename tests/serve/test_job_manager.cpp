// JobManager: spec parsing/validation at submit time, FIFO admission with
// a bounded queue, cooperative cancel of queued and running jobs, per-job
// run deadlines, and the determinism bridge — a job's result JSON is
// byte-identical to running the same spec directly.
#include "serve/job_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "core/batch_suites.h"
#include "serve/design_job.h"
#include "store/store_audit.h"
#include "store/store_gc.h"
#include "store/sweep_store.h"

namespace ides {
namespace {

using namespace std::chrono_literals;

/// Small, fast design job (a few milliseconds under AH).
JobSpec fastJob() {
  JobSpec spec;
  spec.design.nodes = 4;
  spec.design.existing = 30;
  spec.design.current = 12;
  spec.design.seed = 7;
  spec.design.strategy = "AH";
  return spec;
}

/// A job that runs for many seconds unless cancelled or deadlined: long
/// SA on a small instance, so the stop token is polled often.
JobSpec longJob() {
  JobSpec spec;
  spec.design.nodes = 4;
  spec.design.existing = 60;
  spec.design.current = 24;
  spec.design.strategy = "SA";
  spec.design.saIterations = 50'000'000;
  return spec;
}

bool waitFor(const std::function<bool()>& done, double seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return done();
}

bool isTerminal(std::optional<JobState> state) {
  return state.has_value() &&
         (*state == JobState::Done || *state == JobState::Failed ||
          *state == JobState::Cancelled);
}

TEST(ParseJobSpec, DesignDefaults) {
  const JobSpec spec = parseJobSpec("{\"type\": \"design\"}");
  EXPECT_EQ(spec.kind, JobSpec::Kind::Design);
  EXPECT_EQ(spec.deadlineSeconds, 0.0);
  EXPECT_EQ(spec.design.nodes, 10u);
  EXPECT_EQ(spec.design.existing, 400u);
  EXPECT_EQ(spec.design.current, 160u);
  EXPECT_EQ(spec.design.seed, 1u);
  EXPECT_EQ(spec.design.strategy, "MH");
}

TEST(ParseJobSpec, DesignFieldsRoundTrip) {
  const JobSpec spec = parseJobSpec(
      "{\"type\": \"design\", \"nodes\": 6, \"existing\": 80, "
      "\"current\": 32, \"seed\": 9, \"strategy\": \"SA\", "
      "\"sa_iters\": 500, \"deadline_seconds\": 2.5}");
  EXPECT_EQ(spec.design.nodes, 6u);
  EXPECT_EQ(spec.design.existing, 80u);
  EXPECT_EQ(spec.design.current, 32u);
  EXPECT_EQ(spec.design.seed, 9u);
  EXPECT_EQ(spec.design.strategy, "SA");
  EXPECT_EQ(spec.design.saIterations, 500);
  EXPECT_DOUBLE_EQ(spec.deadlineSeconds, 2.5);
}

TEST(ParseJobSpec, IntegerFieldsAcceptTheirBounds) {
  const JobSpec spec = parseJobSpec(
      "{\"type\": \"design\", \"nodes\": 2, \"existing\": 0, "
      "\"seed\": 9007199254740991, \"sa_iters\": 2147483647}");
  EXPECT_EQ(spec.design.nodes, 2u);
  EXPECT_EQ(spec.design.existing, 0u);
  EXPECT_EQ(spec.design.seed, 9007199254740991u);
  EXPECT_EQ(spec.design.saIterations, 2147483647);
}

TEST(ParseJobSpec, SweepDefaults) {
  const JobSpec spec =
      parseJobSpec("{\"type\": \"sweep\", \"sweep\": \"quality\"}");
  EXPECT_EQ(spec.kind, JobSpec::Kind::Sweep);
  EXPECT_EQ(spec.sweep.sweep, "quality");
  EXPECT_EQ(spec.sweep.scaleName, "smoke");
  EXPECT_EQ(spec.sweep.shards, 1);
}

TEST(ParseJobSpec, RejectsBadSpecs) {
  // Each entry is (body, substring expected in the error message).
  const std::pair<const char*, const char*> cases[] = {
      {"not json", "malformed JSON"},
      {"[1, 2]", "must be a JSON object"},
      {"{\"type\": \"mystery\"}", "unknown job type"},
      {"{\"type\": \"design\", \"frobnicate\": 1}", "unknown field"},
      {"{\"type\": \"design\", \"strategy\": \"ZZ\"}", "unknown strategy"},
      {"{\"type\": \"design\", \"nodes\": 1}", "nodes must be >= 2"},
      {"{\"type\": \"design\", \"nodes\": \"four\"}", "must be a number"},
      {"{\"type\": \"design\", \"nodes\": 2.5}", "must be an integer"},
      {"{\"type\": \"design\", \"deadline_seconds\": -1}",
       "deadline_seconds must be >= 0"},
      {"{\"type\": \"sweep\"}", "\"sweep\" must be a string"},
      {"{\"type\": \"sweep\", \"sweep\": \"nope\"}", "unknown sweep"},
      {"{\"type\": \"sweep\", \"sweep\": \"quality\", \"scale\": \"mega\"}",
       "unknown scale"},
      {"{\"type\": \"sweep\", \"sweep\": \"quality\", \"shards\": -1}",
       "shards must be >= 0"},
      // Integers that do not fit their field are refused before the cast,
      // not wrapped or rounded into a different job.
      {"{\"type\": \"design\", \"current\": -5}", "current must be >= 0"},
      {"{\"type\": \"design\", \"existing\": -1}", "existing must be >= 0"},
      {"{\"type\": \"design\", \"nodes\": -3}", "nodes must be >= 2"},
      {"{\"type\": \"design\", \"nodes\": 1e20}",
       "nodes must be <= 9007199254740991"},
      {"{\"type\": \"design\", \"sa_iters\": 1e10}",
       "sa_iters must be <= 2147483647"},
      {"{\"type\": \"design\", \"sa_iters\": 1e300}",
       "sa_iters must be <= 2147483647"},
      {"{\"type\": \"design\", \"sa_iters\": -1}", "sa_iters must be >= 0"},
      {"{\"type\": \"design\", \"seed\": 9007199254740993}",
       "seed must be <= 9007199254740991"},
      {"{\"type\": \"design\", \"seed\": 9007199254740992}",
       "seed must be <= 9007199254740991"},
      {"{\"type\": \"design\", \"seed\": -1}", "seed must be >= 0"},
      {"{\"type\": \"design\", \"restarts\": -2}", "restarts must be >= 0"},
      // Thread fan-out stops at kMaxAnnealingThreads.
      {"{\"type\": \"design\", \"threads\": 3e9}",
       "threads must be <= 256"},
      {"{\"type\": \"design\", \"threads\": 257}",
       "threads must be <= 256"},
      {"{\"type\": \"design\", \"spec_workers\": 257}",
       "spec_workers must be <= 256"},
      {"{\"type\": \"design\", \"spec_workers\": -1}",
       "spec_workers must be >= 0"},
      // The speculation depth is a constant, not a field.
      {"{\"type\": \"design\", \"spec_depth\": 4}",
       "unknown field \"spec_depth\""},
      {"{\"type\": \"sweep\", \"sweep\": \"quality\", \"shards\": 1e10}",
       "shards must be <= 256"},
      {"{\"type\": \"sweep\", \"sweep\": \"quality\", \"shards\": 257}",
       "shards must be <= 256"},
  };
  for (const auto& [body, expected] : cases) {
    try {
      (void)parseJobSpec(body);
      FAIL() << "accepted: " << body;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << body << " -> " << e.what();
    }
  }
}

TEST(JobManagerTest, RunsDesignJobToDone) {
  JobManager jobs(JobManagerOptions{});
  const auto submission = jobs.submit(fastJob());
  ASSERT_TRUE(submission.accepted);
  EXPECT_EQ(submission.id, "job-1");

  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(submission.id) == JobState::Done; }));
  EXPECT_EQ(jobs.finishedCount(), 1u);

  const auto status = jobs.statusJson(submission.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(status->find("\"runtime_seconds\":"), std::string::npos);
  EXPECT_NE(status->find("\"stopped\": false"), std::string::npos);

  // The headline guarantee: identical bytes to a direct run of the spec.
  RunContext context;
  const DesignJobResult direct = runDesignJob(fastJob().design, context);
  const auto result = jobs.resultJson(submission.id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, designResultJson(direct, /*timing=*/false));
}

TEST(JobManagerTest, UnknownIdsAnswerEmpty) {
  JobManager jobs(JobManagerOptions{});
  EXPECT_FALSE(jobs.state("job-99").has_value());
  EXPECT_FALSE(jobs.statusJson("job-99").has_value());
  EXPECT_FALSE(jobs.resultJson("job-99").has_value());
  EXPECT_FALSE(jobs.cancel("job-99"));
}

TEST(JobManagerTest, AdmissionLimitRejectsWhenQueueIsFull) {
  JobManagerOptions options;
  options.workers = 1;
  options.maxQueued = 1;
  JobManager jobs(options);

  const auto running = jobs.submit(longJob());
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(running.id) == JobState::Running; }));

  const auto queued = jobs.submit(fastJob());
  ASSERT_TRUE(queued.accepted);
  EXPECT_EQ(jobs.queuedCount(), 1u);

  const auto rejected = jobs.submit(fastJob());
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.error.find("full"), std::string::npos);

  // Unblock the worker; the queued job must still run to completion.
  EXPECT_TRUE(jobs.cancel(running.id));
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(queued.id) == JobState::Done; }));
  EXPECT_EQ(jobs.state(running.id), JobState::Cancelled);
}

TEST(JobManagerTest, CancelQueuedJobNeverRuns) {
  JobManagerOptions options;
  options.workers = 1;
  JobManager jobs(options);

  const auto running = jobs.submit(longJob());
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(running.id) == JobState::Running; }));
  const auto queued = jobs.submit(fastJob());
  ASSERT_TRUE(queued.accepted);

  EXPECT_TRUE(jobs.cancel(queued.id));
  EXPECT_EQ(jobs.state(queued.id), JobState::Cancelled);
  EXPECT_EQ(jobs.queuedCount(), 0u);
  // Never ran: no result, and a second cancel is a no-op.
  EXPECT_FALSE(jobs.resultJson(queued.id).has_value());
  EXPECT_FALSE(jobs.cancel(queued.id));

  EXPECT_TRUE(jobs.cancel(running.id));
  ASSERT_TRUE(waitFor([&] { return isTerminal(jobs.state(running.id)); }));
}

TEST(JobManagerTest, CancelRunningJobKeepsPartialResult) {
  JobManager jobs(JobManagerOptions{});
  const auto submission = jobs.submit(longJob());
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(submission.id) == JobState::Running; }));

  EXPECT_TRUE(jobs.cancel(submission.id));
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(submission.id) == JobState::Cancelled; }));

  // Cooperative cancel: the optimizer returned its best-so-far result.
  const auto result = jobs.resultJson(submission.id);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->find("\"stopped\": true"), std::string::npos);
  const auto status = jobs.statusJson(submission.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"state\": \"cancelled\""), std::string::npos);
}

TEST(JobManagerTest, DeadlineEndsRunAsDoneWithStoppedFlag) {
  JobManager jobs(JobManagerOptions{});
  JobSpec spec = longJob();
  spec.deadlineSeconds = 0.2;
  const auto submission = jobs.submit(spec);
  ASSERT_TRUE(submission.accepted);

  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(submission.id) == JobState::Done; }));
  const auto status = jobs.statusJson(submission.id);
  ASSERT_TRUE(status.has_value());
  // A fired deadline is a normal end with a partial result, not a cancel.
  EXPECT_NE(status->find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(status->find("\"stopped\": true"), std::string::npos);
  EXPECT_TRUE(jobs.resultJson(submission.id).has_value());
  EXPECT_FALSE(jobs.cancel(submission.id));  // already terminal
}

TEST(JobManagerTest, DrainCancelsQueuedAndRejectsNewSubmits) {
  JobManagerOptions options;
  options.workers = 1;
  JobManager jobs(options);

  const auto running = jobs.submit(longJob());
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(running.id) == JobState::Running; }));
  const auto queued = jobs.submit(fastJob());

  jobs.drain();
  EXPECT_EQ(jobs.state(queued.id), JobState::Cancelled);
  EXPECT_TRUE(isTerminal(jobs.state(running.id)));

  const auto late = jobs.submit(fastJob());
  EXPECT_FALSE(late.accepted);
  EXPECT_NE(late.error.find("draining"), std::string::npos);
}

TEST(ParseJobIdNumber, AcceptsIdsRejectsEverythingElse) {
  EXPECT_EQ(parseJobIdNumber("job-1"), 1u);
  EXPECT_EQ(parseJobIdNumber("job-42"), 42u);
  EXPECT_FALSE(parseJobIdNumber("job-").has_value());
  EXPECT_FALSE(parseJobIdNumber("job-x").has_value());
  EXPECT_FALSE(parseJobIdNumber("job-1x").has_value());
  EXPECT_FALSE(parseJobIdNumber("7").has_value());
  EXPECT_FALSE(parseJobIdNumber("").has_value());
  EXPECT_FALSE(parseJobIdNumber("job-99999999999999999999").has_value());
}

TEST(JobManagerTest, ListJsonPaginatesWithLimitAndAfter) {
  JobManagerOptions options;
  options.workers = 1;
  JobManager jobs(options);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(jobs.submit(fastJob()).accepted);
  ASSERT_TRUE(waitFor([&] { return jobs.finishedCount() == 5u; }));

  const std::string page1 = jobs.listJson(2);
  EXPECT_NE(page1.find("\"id\": \"job-1\""), std::string::npos);
  EXPECT_NE(page1.find("\"id\": \"job-2\""), std::string::npos);
  EXPECT_EQ(page1.find("\"id\": \"job-3\""), std::string::npos);
  EXPECT_NE(page1.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(page1.find("\"retained\": 5"), std::string::npos);
  EXPECT_NE(page1.find("\"next_after\": \"job-2\""), std::string::npos);

  const std::string page2 = jobs.listJson(2, "job-2");
  EXPECT_EQ(page2.find("\"id\": \"job-2\""), std::string::npos);
  EXPECT_NE(page2.find("\"id\": \"job-3\""), std::string::npos);
  EXPECT_NE(page2.find("\"id\": \"job-4\""), std::string::npos);
  EXPECT_NE(page2.find("\"next_after\": \"job-4\""), std::string::npos);

  // Unlimited tail from a cursor: the last page has no next_after.
  const std::string tail = jobs.listJson(0, "job-4");
  EXPECT_NE(tail.find("\"id\": \"job-5\""), std::string::npos);
  EXPECT_EQ(tail.find("\"next_after\""), std::string::npos);

  // A cursor at (or past) the newest job yields an empty page.
  const std::string empty = jobs.listJson(2, "job-5");
  EXPECT_NE(empty.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(empty.find("\"id\":"), std::string::npos);
  EXPECT_EQ(empty.find("\"next_after\""), std::string::npos);
}

TEST(JobManagerTest, RetentionCapEvictsOldestTerminalJobs) {
  JobManagerOptions options;
  options.workers = 1;
  options.retainFinished = 2;
  JobManager jobs(options);
  for (int i = 0; i < 4; ++i) {
    const auto submission = jobs.submit(fastJob());
    ASSERT_TRUE(submission.accepted);
    ASSERT_TRUE(
        waitFor([&] { return isTerminal(jobs.state(submission.id)); }));
  }

  // The two oldest terminal jobs are gone; ids keep counting upward.
  EXPECT_FALSE(jobs.state("job-1").has_value());
  EXPECT_FALSE(jobs.state("job-2").has_value());
  EXPECT_FALSE(jobs.statusJson("job-1").has_value());
  EXPECT_FALSE(jobs.resultJson("job-1").has_value());
  EXPECT_EQ(jobs.state("job-3"), JobState::Done);
  EXPECT_EQ(jobs.state("job-4"), JobState::Done);
  EXPECT_EQ(jobs.finishedCount(), 2u);
  EXPECT_EQ(jobs.evictedCount(), 2u);

  // An evicted id remains a valid pagination cursor (numeric compare).
  const std::string page = jobs.listJson(0, "job-1");
  EXPECT_NE(page.find("\"id\": \"job-3\""), std::string::npos);
  EXPECT_NE(page.find("\"evicted\": 2"), std::string::npos);

  // The id counter never reuses an evicted number.
  const auto fifth = jobs.submit(fastJob());
  EXPECT_EQ(fifth.id, "job-5");
  ASSERT_TRUE(waitFor([&] { return isTerminal(jobs.state(fifth.id)); }));
  EXPECT_FALSE(jobs.state("job-3").has_value());  // now the oldest
  EXPECT_EQ(jobs.evictedCount(), 3u);
}

TEST(JobManagerTest, RetentionCapNeverEvictsQueuedOrRunningJobs) {
  JobManagerOptions options;
  options.workers = 1;
  options.retainFinished = 1;
  JobManager jobs(options);

  const auto running = jobs.submit(longJob());
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(running.id) == JobState::Running; }));
  const auto queued1 = jobs.submit(fastJob());
  const auto queued2 = jobs.submit(fastJob());

  // Cancelling both queued jobs makes two terminal jobs: the cap evicts
  // the older cancelled one, never the still-running job-1 above them.
  EXPECT_TRUE(jobs.cancel(queued1.id));
  EXPECT_TRUE(jobs.cancel(queued2.id));
  EXPECT_FALSE(jobs.state(queued1.id).has_value());
  EXPECT_EQ(jobs.state(queued2.id), JobState::Cancelled);
  EXPECT_EQ(jobs.state(running.id), JobState::Running);

  // Once the running job ends it becomes the oldest terminal job — and
  // the next GC pass (its own terminal transition) evicts it.
  EXPECT_TRUE(jobs.cancel(running.id));
  ASSERT_TRUE(
      waitFor([&] { return !jobs.state(running.id).has_value(); }));
  EXPECT_EQ(jobs.state(queued2.id), JobState::Cancelled);
  EXPECT_EQ(jobs.evictedCount(), 2u);
}

// ---- design-job result cache ----------------------------------------------

std::string freshCacheDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ides_jobcache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The store key of a design job: its instance's sweep fingerprint.
std::string designFingerprint(const DesignJobSpec& spec) {
  return instanceFingerprint(kDesignJobSuite, designJobInstance(spec));
}

TEST(DesignJobFingerprint, IsStableAndIgnoresResultNeutralKnobs) {
  DesignJobSpec spec;
  const std::string fp = designFingerprint(spec);
  EXPECT_EQ(fp.size(), 32u);
  EXPECT_EQ(designFingerprint(spec), fp);

  // threads / specWorkers change how fast a job runs, never what it
  // returns — identical fingerprint, shared cache slot.
  DesignJobSpec tuned = spec;
  tuned.threads = 8;
  tuned.specWorkers = 4;
  EXPECT_EQ(designFingerprint(tuned), fp);
  // sa_iters 0 stands for the SA default: the same options, one record.
  tuned.saIterations = SaOptions{}.iterations;
  EXPECT_EQ(designFingerprint(tuned), fp);

  DesignJobSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(designFingerprint(other), fp);
  other = spec;
  other.strategy = "SA";
  EXPECT_NE(designFingerprint(other), fp);
  other = spec;
  other.current += 1;
  EXPECT_NE(designFingerprint(other), fp);
}

TEST(JobManagerTest, ResubmittedDesignJobIsServedFromTheCache) {
  JobManagerOptions options;
  options.workers = 1;
  options.storeDir = freshCacheDir("resubmit");
  JobManager jobs(options);

  const auto first = jobs.submit(fastJob());
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(first.id) == JobState::Done; }));
  const auto firstStatus = jobs.statusJson(first.id);
  ASSERT_TRUE(firstStatus.has_value());
  EXPECT_NE(firstStatus->find("\"cached\": false"), std::string::npos);

  const auto second = jobs.submit(fastJob());
  ASSERT_TRUE(second.accepted);
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(second.id) == JobState::Done; }));
  const auto secondStatus = jobs.statusJson(second.id);
  ASSERT_TRUE(secondStatus.has_value());
  EXPECT_NE(secondStatus->find("\"cached\": true"), std::string::npos);
  EXPECT_NE(secondStatus->find("\"phase\": \"cached\""), std::string::npos);

  // The headline contract: a hit returns the exact bytes of a fresh run.
  const auto firstResult = jobs.resultJson(first.id);
  const auto secondResult = jobs.resultJson(second.id);
  ASSERT_TRUE(firstResult.has_value());
  ASSERT_TRUE(secondResult.has_value());
  EXPECT_EQ(*secondResult, *firstResult);
}

TEST(JobManagerTest, CacheSurvivesAcrossManagerInstances) {
  const std::string dir = freshCacheDir("restart");
  std::string firstResult;
  {
    JobManagerOptions options;
    options.storeDir = dir;
    JobManager jobs(options);
    const auto submission = jobs.submit(fastJob());
    ASSERT_TRUE(waitFor(
        [&] { return jobs.state(submission.id) == JobState::Done; }));
    firstResult = *jobs.resultJson(submission.id);
  }
  JobManagerOptions options;
  options.storeDir = dir;
  JobManager jobs(options);
  const auto again = jobs.submit(fastJob());
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(again.id) == JobState::Done; }));
  EXPECT_NE(jobs.statusJson(again.id)->find("\"cached\": true"),
            std::string::npos);
  EXPECT_EQ(*jobs.resultJson(again.id), firstResult);
}

TEST(JobManagerTest, DifferentSpecsNeverShareACacheSlot) {
  JobManagerOptions options;
  options.storeDir = freshCacheDir("distinct");
  JobManager jobs(options);

  const auto first = jobs.submit(fastJob());
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(first.id) == JobState::Done; }));

  JobSpec other = fastJob();
  other.design.seed += 1;
  const auto second = jobs.submit(other);
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(second.id) == JobState::Done; }));
  EXPECT_NE(jobs.statusJson(second.id)->find("\"cached\": false"),
            std::string::npos);
  EXPECT_NE(*jobs.resultJson(first.id), *jobs.resultJson(second.id));
}

TEST(JobManagerTest, DeadlineStoppedRunsAreNeverCached) {
  JobManagerOptions options;
  options.storeDir = freshCacheDir("stopped");
  JobManager jobs(options);

  JobSpec spec = longJob();
  spec.deadlineSeconds = 0.2;
  const auto first = jobs.submit(spec);
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(first.id) == JobState::Done; }));
  ASSERT_NE(jobs.resultJson(first.id)->find("\"stopped\": true"),
            std::string::npos);

  // A partial result must not shadow the full one: the resubmit runs.
  const auto second = jobs.submit(spec);
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(second.id) == JobState::Done; }));
  EXPECT_NE(jobs.statusJson(second.id)->find("\"cached\": false"),
            std::string::npos);
}

TEST(JobManagerTest, CorruptCacheFilesAreIgnoredAndReplaced) {
  const std::string dir = freshCacheDir("corrupt");
  const std::string path =
      SweepStore(dir).recordPath(designFingerprint(fastJob().design));
  std::ofstream(path) << "{\"not\": \"a result\"";
  JobManagerOptions options;
  options.storeDir = dir;
  JobManager jobs(options);
  const auto submission = jobs.submit(fastJob());
  ASSERT_TRUE(waitFor(
      [&] { return jobs.state(submission.id) == JobState::Done; }));
  EXPECT_NE(jobs.statusJson(submission.id)->find("\"cached\": false"),
            std::string::npos);
  EXPECT_EQ(auditSweepStore(dir).quarantined.size(), 1u);

  // The fresh run replaced the corrupt file; the next submit hits.
  const auto again = jobs.submit(fastJob());
  ASSERT_TRUE(
      waitFor([&] { return jobs.state(again.id) == JobState::Done; }));
  EXPECT_NE(jobs.statusJson(again.id)->find("\"cached\": true"),
            std::string::npos);
  EXPECT_EQ(*jobs.resultJson(again.id), *jobs.resultJson(submission.id));
}

TEST(JobManagerTest, StoreToolingSeesDesignResults) {
  const std::string dir = freshCacheDir("tooling");
  {
    JobManagerOptions options;
    options.storeDir = dir;
    JobManager jobs(options);
    const auto submission = jobs.submit(fastJob());
    ASSERT_TRUE(waitFor(
        [&] { return jobs.state(submission.id) == JobState::Done; }));
  }
  const StoreAuditReport audit = auditSweepStore(dir);
  ASSERT_EQ(audit.records.size(), 1u);
  EXPECT_EQ(audit.okCount, 1u);
  EXPECT_EQ(audit.badCount, 0u);
  EXPECT_EQ(audit.records[0].suite, kDesignJobSuite);
  EXPECT_EQ(audit.records[0].fingerprint,
            designFingerprint(fastJob().design));

  // An epoch bump supersedes design records like sweep records.
  StoreGcOptions gc;
  gc.epoch = static_cast<std::int64_t>(kSweepFingerprintEpoch) + 1;
  const StoreGcReport report = gcSweepStore(dir, gc);
  ASSERT_EQ(report.remove.size(), 1u);
  EXPECT_EQ(report.remove[0].fingerprint, audit.records[0].fingerprint);
}

TEST(JobManagerTest, ListJsonCoversEveryJobInSubmissionOrder) {
  JobManager jobs(JobManagerOptions{});
  const auto first = jobs.submit(fastJob());
  const auto second = jobs.submit(fastJob());
  ASSERT_TRUE(waitFor([&] {
    return isTerminal(jobs.state(first.id)) &&
           isTerminal(jobs.state(second.id));
  }));
  const std::string list = jobs.listJson();
  const std::size_t posFirst = list.find("\"id\": \"job-1\"");
  const std::size_t posSecond = list.find("\"id\": \"job-2\"");
  ASSERT_NE(posFirst, std::string::npos);
  ASSERT_NE(posSecond, std::string::npos);
  EXPECT_LT(posFirst, posSecond);
}

}  // namespace
}  // namespace ides
