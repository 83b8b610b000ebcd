// SweepStore: record round-trip, fingerprint stability/sensitivity,
// quarantine, refusal of partial results, and the headline guarantee —
// a cancelled sweep resumed from the store renders byte-identical
// (timing off) to an uncancelled run, including a deadline that fires
// exactly at a shard boundary.
#include "store/sweep_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/batch_suites.h"
#include "test_helpers.h"
#include "util/json_reader.h"

namespace ides {
namespace {

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ides_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Same shape as the batch-runner unit suite: 2 sizes x 2 seeds x
/// {AH, MH, SA-short} on the loaded 4-node config.
InstanceSuite smallSuite(int saIterations = 150) {
  InstanceSuite suite("unit-store");
  const std::size_t sizes[] = {12, 20};
  for (const std::size_t size : sizes) {
    for (int s = 0; s < 2; ++s) {
      for (const char* strategy : {"AH", "MH", "SA"}) {
        BatchInstance instance;
        instance.group = "n";  // += avoids GCC -Wrestrict (PR105651)
        instance.group += std::to_string(size);
        instance.id = instance.group;
        instance.id += "/s";
        instance.id += std::to_string(s);
        instance.id += "/";
        instance.id += strategy;
        instance.axis = static_cast<double>(size);
        instance.seedIndex = s;
        instance.suiteSeed = 100 + static_cast<std::uint64_t>(s);
        instance.config = ides::testing::smallSuiteConfig(40, size);
        instance.strategy = strategy;
        instance.options.sa.iterations = saIterations;
        instance.options.sa.seed = static_cast<std::uint64_t>(s) + 1;
        suite.add(std::move(instance));
      }
    }
  }
  return suite;
}

InstanceOutcome probeOutcome() {
  InstanceOutcome outcome;
  outcome.report.strategy = "SA";
  outcome.report.feasible = true;
  outcome.report.objective = 123.45600000000013;  // needs all 17 digits
  outcome.report.metrics.c1p = 1.0 / 3.0;
  outcome.report.metrics.c1m = 0.25;
  outcome.report.metrics.c2p = 98765;
  outcome.report.metrics.c2mBytes = 4321;
  outcome.report.evaluations = 1500;
  outcome.report.seconds = 0.123456;
  outcome.extras.add("future_fit", 4.0);
  outcome.extras.add("future_samples", 5.0);
  return outcome;
}

TEST(SweepStoreTest, RecordRoundTripPreservesEveryAggregatedField) {
  SweepStore store(freshDir("roundtrip"));
  const InstanceOutcome original = probeOutcome();
  ASSERT_TRUE(store.store("fp1", "unit-store", "n12/s0/SA", original));
  EXPECT_TRUE(store.contains("fp1"));
  EXPECT_EQ(store.recordCount(), 1u);

  const auto loaded = store.load("fp1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->hasReport);
  EXPECT_EQ(loaded->report.strategy, original.report.strategy);
  EXPECT_EQ(loaded->report.feasible, original.report.feasible);
  EXPECT_EQ(loaded->report.objective, original.report.objective);
  EXPECT_EQ(loaded->report.metrics.c1p, original.report.metrics.c1p);
  EXPECT_EQ(loaded->report.metrics.c1m, original.report.metrics.c1m);
  EXPECT_EQ(loaded->report.metrics.c2p, original.report.metrics.c2p);
  EXPECT_EQ(loaded->report.metrics.c2mBytes,
            original.report.metrics.c2mBytes);
  EXPECT_EQ(loaded->report.evaluations, original.report.evaluations);
  EXPECT_EQ(loaded->report.seconds, original.report.seconds);
  EXPECT_FALSE(loaded->report.stopped);
  ASSERT_EQ(loaded->extras.fields.size(), 2u);
  EXPECT_EQ(loaded->extras.fields[0].first, "future_fit");
  EXPECT_EQ(loaded->extras.fields[0].second, 4.0);
  EXPECT_EQ(loaded->extras.fields[1].first, "future_samples");
}

TEST(SweepStoreTest, ExtrasOnlyRecordRoundTrips) {
  SweepStore store(freshDir("extras"));
  InstanceOutcome original;
  original.hasReport = false;
  original.extras.add("accepted", 7.0);
  original.extras.add("queue", 24.0);
  ASSERT_TRUE(store.store("fp2", "unit-store", "inc/s0/AH", original));
  const auto loaded = store.load("fp2");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->hasReport);
  ASSERT_EQ(loaded->extras.fields.size(), 2u);
  EXPECT_EQ(loaded->extras.fields[1].second, 24.0);
}

TEST(SweepStoreTest, FirstWriterWins) {
  SweepStore store(freshDir("firstwriter"));
  InstanceOutcome outcome = probeOutcome();
  ASSERT_TRUE(store.store("fp", "s", "id", outcome));
  outcome.report.objective = 999.0;
  EXPECT_FALSE(store.store("fp", "s", "id", outcome));
  EXPECT_EQ(store.load("fp")->report.objective,
            probeOutcome().report.objective);
}

TEST(SweepStoreTest, RefusesPartialOutcomes) {
  SweepStore store(freshDir("partial"));
  InstanceOutcome stopped = probeOutcome();
  stopped.report.stopped = true;
  EXPECT_FALSE(store.store("fp", "s", "id", stopped));
  EXPECT_FALSE(store.contains("fp"));

  InstanceOutcome customStopped;
  customStopped.hasReport = false;
  customStopped.extras.add("accepted", 3.0);
  customStopped.extras.add("run_stopped", 1.0);
  EXPECT_FALSE(store.store("fp", "s", "id", customStopped));

  customStopped.extras.fields[1].second = 0.0;  // full run after all
  EXPECT_TRUE(store.store("fp", "s", "id", customStopped));
}

TEST(SweepStoreTest, RefusesNonFiniteOutcomes) {
  // "inf"/"nan" would render into a record the strict reader can never
  // parse — a permanently re-quarantined, re-run instance. Refused instead.
  SweepStore store(freshDir("nonfinite"));
  InstanceOutcome infinite = probeOutcome();
  infinite.report.objective = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(store.store("fp", "s", "id", infinite));

  InstanceOutcome nanExtra = probeOutcome();
  nanExtra.extras.add("ratio", std::nan(""));
  EXPECT_FALSE(store.store("fp", "s", "id", nanExtra));
  EXPECT_EQ(store.recordCount(), 0u);
}

TEST(SweepStoreTest, CorruptRecordIsQuarantinedAndReportedAbsent) {
  SweepStore store(freshDir("corrupt"));
  ASSERT_TRUE(store.store("fp", "s", "id", probeOutcome()));

  // Truncate the record to simulate a torn write / bit rot.
  {
    std::ofstream out(store.recordPath("fp"), std::ios::trunc);
    out << "{\"schema\": 1, \"finger";
  }
  EXPECT_FALSE(store.load("fp").has_value());
  EXPECT_EQ(store.quarantinedCount(), 1u);
  // The corrupt file was moved aside: the instance reads as absent and can
  // be re-run and re-stored.
  EXPECT_FALSE(store.contains("fp"));
  EXPECT_TRUE(store.store("fp", "s", "id", probeOutcome()));
  EXPECT_TRUE(store.load("fp").has_value());
}

TEST(SweepStoreTest, MismatchedFingerprintInsideRecordIsQuarantined) {
  SweepStore store(freshDir("mismatch"));
  ASSERT_TRUE(store.store("fp-a", "s", "id", probeOutcome()));
  // A record copied under the wrong name must not be trusted.
  std::filesystem::copy_file(store.recordPath("fp-a"),
                             store.recordPath("fp-b"));
  EXPECT_FALSE(store.load("fp-b").has_value());
  EXPECT_EQ(store.quarantinedCount(), 1u);
  EXPECT_TRUE(store.load("fp-a").has_value());
}

// ---- instance fingerprints ------------------------------------------------

TEST(InstanceFingerprintTest, StableAcrossCallsAndSensitiveToInputs) {
  const InstanceSuite suite = smallSuite();
  const BatchInstance& base = suite.instances()[0];
  const std::string fp = instanceFingerprint("unit-store", base);
  EXPECT_EQ(fp.size(), 32u);
  EXPECT_EQ(fp, instanceFingerprint("unit-store", base));

  // Result-relevant changes move the fingerprint…
  BatchInstance changed = base;
  changed.suiteSeed += 1;
  EXPECT_NE(instanceFingerprint("unit-store", changed), fp);
  changed = base;
  changed.strategy = "MH";
  EXPECT_NE(instanceFingerprint("unit-store", changed), fp);
  changed = base;
  changed.options.sa.iterations += 1;
  EXPECT_NE(instanceFingerprint("unit-store", changed), fp);
  changed = base;
  changed.options.weights.w2p = 9.0;
  EXPECT_NE(instanceFingerprint("unit-store", changed), fp);
  changed = base;
  changed.config.currentProcesses += 1;
  EXPECT_NE(instanceFingerprint("unit-store", changed), fp);
  EXPECT_NE(instanceFingerprint("other-suite", base), fp);

  // …result-neutral knobs do not (their bit-identity is asserted by the
  // optimizer/speculation suites, so records are shareable across them).
  BatchInstance neutral = base;
  neutral.options.sa.speculation.workers = 4;
  neutral.options.sa.recordCostTrace = true;
  neutral.options.psa.threads = 8;
  neutral.options.psa.speculativeWorkers = 2;
  EXPECT_EQ(instanceFingerprint("unit-store", neutral), fp);
}

TEST(InstanceFingerprintTest, NamedSweepFingerprintsAreUnique) {
  SweepScale tiny;
  tiny.seeds = 2;
  tiny.sizes = {40, 160};
  tiny.futureAppsPerInstance = 2;
  std::vector<std::string> seen;
  for (const std::string& name : sweepNames()) {
    const InstanceSuite suite = namedSweep(name, tiny);
    for (const BatchInstance& instance : suite.instances()) {
      const std::string fp = instanceFingerprint(suite.name(), instance);
      for (const std::string& other : seen) {
        ASSERT_NE(fp, other) << name << " " << instance.id;
      }
      seen.push_back(fp);
    }
  }
}

// ---- resume ---------------------------------------------------------------

std::string deterministicJson(const BatchReport& report) {
  BatchJsonOptions json;
  json.timing = false;
  return batchReportJson("unit", report, json);
}

TEST(SweepStoreResumeTest, CancelledSweepResumesByteIdentical) {
  const InstanceSuite suite = smallSuite();
  const std::string uncancelled = deterministicJson(runBatch(suite, {}));

  SweepStore store(freshDir("resume"));
  {
    StopToken stop;
    SweepStoreCache cache(store, suite.name(), /*reuse=*/false);
    BatchOptions options;
    options.shards = 1;  // deterministic completion prefix
    options.stop = &stop;
    options.cache = &cache;
    std::size_t seen = 0;
    options.onInstanceDone = [&](const InstanceResult&) {
      if (++seen == 3) stop.requestStop();
    };
    const BatchReport partial = runBatch(suite, options);
    EXPECT_TRUE(partial.stopped);
    EXPECT_EQ(partial.completed, 3u);
    EXPECT_EQ(cache.stored(), 3u);
    EXPECT_EQ(store.recordCount(), 3u);
  }

  // Resume: the three stored instances come back as cache hits, the rest
  // run fresh; the deterministic rendering matches the uncancelled run.
  SweepStoreCache cache(store, suite.name(), /*reuse=*/true);
  BatchOptions options;
  options.shards = 2;  // resume may shard differently — still identical
  options.cache = &cache;
  const BatchReport resumed = runBatch(suite, options);
  EXPECT_EQ(resumed.completed, suite.size());
  EXPECT_EQ(resumed.cacheHits, 3u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(deterministicJson(resumed), uncancelled);
  EXPECT_EQ(store.recordCount(), suite.size());
}

TEST(SweepStoreResumeTest, ReuseOffRecordsButNeverReads) {
  const InstanceSuite suite = smallSuite();
  SweepStore store(freshDir("writeonly"));
  SweepStoreCache writeOnly(store, suite.name(), /*reuse=*/false);
  BatchOptions options;
  options.cache = &writeOnly;
  (void)runBatch(suite, options);
  EXPECT_EQ(store.recordCount(), suite.size());

  SweepStoreCache again(store, suite.name(), /*reuse=*/false);
  options.cache = &again;
  const BatchReport rerun = runBatch(suite, options);
  EXPECT_EQ(rerun.cacheHits, 0u);
  EXPECT_EQ(again.hits(), 0u);
}

// Satellite: a StopToken DEADLINE firing exactly at a shard boundary (the
// runner polls the token between instance claims) must leave a well-formed,
// store-resumable partial report.
TEST(SweepStoreResumeTest, DeadlineAtShardBoundaryLeavesResumableState) {
  const InstanceSuite suite = smallSuite();
  const std::string uncancelled = deterministicJson(runBatch(suite, {}));

  SweepStore store(freshDir("deadline"));
  StopToken stop;
  SweepStoreCache cache(store, suite.name(), /*reuse=*/false);
  BatchOptions options;
  options.shards = 1;
  options.stop = &stop;
  options.cache = &cache;
  std::size_t seen = 0;
  options.onInstanceDone = [&](const InstanceResult&) {
    // An already-expired deadline latches on the runner's next poll, which
    // is exactly the next shard-boundary claim.
    if (++seen == 4) stop.setTimeout(0.0);
  };
  const BatchReport partial = runBatch(suite, options);
  EXPECT_TRUE(partial.stopped);
  EXPECT_EQ(partial.completed, 4u);

  // Well-formed: our own strict JSON parser accepts the partial rendering,
  // and its header counts match what actually ran.
  const std::string partialJson = deterministicJson(partial);
  const JsonValue parsed = parseJson(partialJson);
  EXPECT_EQ(parsed.intAt("completed"), 4);
  EXPECT_TRUE(parsed.boolAt("stopped"));
  EXPECT_EQ(parsed.at("results").items.size(), 4u);
  // No partial record leaked into the store: exactly the completed
  // instances persisted.
  EXPECT_EQ(store.recordCount(), 4u);

  // Resumable: a reuse run completes the suite byte-identically.
  SweepStoreCache resumeCache(store, suite.name(), /*reuse=*/true);
  BatchOptions resumeOptions;
  resumeOptions.cache = &resumeCache;
  const BatchReport resumed = runBatch(suite, resumeOptions);
  EXPECT_EQ(resumed.cacheHits, 4u);
  EXPECT_EQ(deterministicJson(resumed), uncancelled);
}

}  // namespace
}  // namespace ides
