// BatchRunner: canonical-order aggregation, byte-identical JSON across
// shard counts, cooperative cancellation with well-formed partial reports,
// probes, custom jobs, and the named paper sweep builders.
#include "core/batch_runner.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_suites.h"
#include "core/incremental_designer.h"
#include "test_helpers.h"

namespace ides {
namespace {

/// A small but real suite: 2 sizes x 2 seeds x {AH, MH, SA-short} on the
/// loaded 4-node generator config the unit tests use everywhere.
InstanceSuite smallBatchSuite(int saIterations = 150) {
  InstanceSuite suite("unit-batch");
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

TEST(BatchRunnerTest, AggregatedJsonIsByteIdenticalAcrossShardCounts) {
  const InstanceSuite suite = smallBatchSuite();
  BatchJsonOptions json;
  json.timing = false;  // the deterministic rendering
  std::vector<std::string> renderings;
  for (const int shards : {1, 2, 7}) {
    BatchOptions options;
    options.shards = shards;
    const BatchReport report = runBatch(suite, options);
    EXPECT_EQ(report.completed, suite.size()) << shards << " shards";
    EXPECT_FALSE(report.stopped);
    renderings.push_back(batchReportJson("unit", report, json));
  }
  EXPECT_EQ(renderings[0], renderings[1]);
  EXPECT_EQ(renderings[0], renderings[2]);
  // Sanity: the rendering actually contains every record.
  std::size_t records = 0;
  for (std::size_t pos = renderings[0].find("\"id\":");
       pos != std::string::npos;
       pos = renderings[0].find("\"id\":", pos + 1)) {
    ++records;
  }
  EXPECT_EQ(records, suite.size());
}

TEST(BatchRunnerTest, ResultsArriveInCanonicalOrderWithIdentity) {
  const InstanceSuite suite = smallBatchSuite();
  BatchOptions options;
  options.shards = 3;
  const BatchReport report = runBatch(suite, options);
  ASSERT_EQ(report.results.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const InstanceResult& r = report.results[i];
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.id, suite.instances()[i].id);
    EXPECT_EQ(r.group, suite.instances()[i].group);
    EXPECT_TRUE(r.ran);
    EXPECT_TRUE(r.outcome.hasReport);
    EXPECT_EQ(r.outcome.report.strategy, suite.instances()[i].strategy);
    EXPECT_TRUE(r.outcome.report.feasible) << r.id;
  }
}

TEST(BatchRunnerTest, DefaultJobMatchesADirectDesignerRun) {
  const InstanceSuite suite = smallBatchSuite();
  const BatchReport report = runBatch(suite, {});

  // Replay one SA instance by hand: identical config, seed and options
  // must give a bit-identical objective through the legacy facade.
  const BatchInstance& instance = suite.instances()[2];  // n12/s0/SA
  ASSERT_EQ(instance.strategy, "SA");
  const Suite generated = buildSuite(instance.config, instance.suiteSeed);
  IncrementalDesigner designer(generated.system, generated.profile,
                               instance.options);
  const RunReport direct = designer.run("SA");
  const RunReport& batched = report.results[2].outcome.report;
  EXPECT_EQ(batched.objective, direct.objective);
  EXPECT_EQ(batched.mapping, direct.mapping);
  EXPECT_EQ(batched.evaluations, direct.evaluations);
}

TEST(BatchRunnerTest, MidSuiteCancelYieldsWellFormedPartialReport) {
  const InstanceSuite suite = smallBatchSuite();
  StopToken stop;
  BatchOptions options;
  options.shards = 1;  // deterministic completion prefix
  options.stop = &stop;
  std::size_t seen = 0;
  options.onInstanceDone = [&](const InstanceResult&) {
    if (++seen == 3) stop.requestStop();
  };
  const BatchReport report = runBatch(suite, options);
  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.completed, 3u);
  ASSERT_EQ(report.results.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(report.results[i].ran, i < 3) << i;
  }

  const std::string json = batchReportJson("unit", report, {});
  EXPECT_NE(json.find("\"stopped\": true"), std::string::npos);
  EXPECT_NE(json.find("\"completed\": 3"), std::string::npos);
  std::size_t records = 0;
  for (std::size_t pos = json.find("\"id\":"); pos != std::string::npos;
       pos = json.find("\"id\":", pos + 1)) {
    ++records;
  }
  EXPECT_EQ(records, 3u);
  ASSERT_GE(json.size(), 4u);
  EXPECT_EQ(json.substr(json.size() - 4), "]\n}\n") << "rendering truncated?";
}

TEST(BatchRunnerTest, ProbeExtrasLandInTheRecord) {
  InstanceSuite suite("probe");
  BatchInstance instance;
  instance.id = "p/s0/AH";
  instance.group = "p";
  instance.config = ides::testing::smallSuiteConfig(40, 12);
  instance.suiteSeed = 7;
  instance.strategy = "AH";
  instance.probe = [](const IncrementalDesigner&, const RunReport& report,
                      BatchExtras& extras) {
    extras.add("probe_feasible", report.feasible ? 1.0 : 0.0);
    extras.add("answer", 42.0);
  };
  suite.add(std::move(instance));

  const BatchReport report = runBatch(suite, {});
  ASSERT_EQ(report.completed, 1u);
  const BatchExtras& extras = report.results[0].outcome.extras;
  ASSERT_EQ(extras.fields.size(), 2u);
  EXPECT_EQ(extras.fields[0].first, "probe_feasible");
  EXPECT_EQ(extras.fields[0].second, 1.0);
  const std::string json = batchReportJson("probe", report, {});
  EXPECT_NE(json.find("\"answer\": 42"), std::string::npos);
}

TEST(BatchRunnerTest, CustomJobBypassesTheOptimizerPath) {
  InstanceSuite suite("custom");
  BatchInstance instance;
  instance.id = "job/s0/none";
  instance.group = "job";
  instance.job = [](const BatchInstance& inst,
                    const StopToken*) -> InstanceOutcome {
    InstanceOutcome outcome;
    outcome.hasReport = false;
    outcome.extras.add("echo", inst.axis);
    return outcome;
  };
  instance.axis = 5.0;
  suite.add(std::move(instance));

  const BatchReport report = runBatch(suite, {});
  ASSERT_EQ(report.completed, 1u);
  EXPECT_FALSE(report.results[0].outcome.hasReport);
  const std::string json = batchReportJson("custom", report, {});
  EXPECT_NE(json.find("\"echo\": 5"), std::string::npos);
  EXPECT_EQ(json.find("\"objective\""), std::string::npos);
}

TEST(BatchRunnerTest, NegativeShardsThrow) {
  const InstanceSuite suite("empty");
  BatchOptions options;
  options.shards = -1;
  EXPECT_THROW((void)runBatch(suite, options), std::invalid_argument);
}

TEST(BatchRunnerTest, ShardsAboveTheThreadCapThrow) {
  // Rejected before any shard starts: the suite is empty.
  const InstanceSuite suite("empty");
  BatchOptions options;
  options.shards = kMaxAnnealingThreads + 1;
  EXPECT_THROW((void)runBatch(suite, options), std::invalid_argument);
}

TEST(BatchRunnerTest, EmptySuiteProducesAnEmptyWellFormedReport) {
  const InstanceSuite suite("empty");
  const BatchReport report = runBatch(suite, {});
  EXPECT_EQ(report.completed, 0u);
  EXPECT_TRUE(report.results.empty());
  const std::string json = batchReportJson("empty", report, {});
  EXPECT_NE(json.find("\"results\": [\n  ]"), std::string::npos);
}

// ---- the ResultCache hook -------------------------------------------------

/// In-memory cache double: serves scripted hits, records store() offers.
class FakeCache final : public ResultCache {
 public:
  bool lookup(const BatchInstance& instance,
              InstanceOutcome& outcome) override {
    const auto it = hits.find(instance.id);
    if (it == hits.end()) return false;
    outcome = it->second;
    return true;
  }
  void store(const BatchInstance& instance,
             const InstanceOutcome& outcome) override {
    stored.emplace_back(instance.id, outcome);
  }

  std::map<std::string, InstanceOutcome> hits;
  std::vector<std::pair<std::string, InstanceOutcome>> stored;
};

TEST(BatchRunnerTest, CacheHitsSkipExecutionAndMissesAreOffered) {
  const InstanceSuite suite = smallBatchSuite();
  FakeCache cache;
  InstanceOutcome canned;
  canned.report.strategy = "AH";
  canned.report.feasible = true;
  canned.report.objective = 42.0;
  cache.hits[suite.instances()[0].id] = canned;

  BatchOptions options;
  options.cache = &cache;
  const BatchReport report = runBatch(suite, options);
  EXPECT_EQ(report.completed, suite.size());
  EXPECT_EQ(report.cacheHits, 1u);
  EXPECT_TRUE(report.results[0].cached);
  EXPECT_EQ(report.results[0].outcome.report.objective, 42.0);
  // Every miss (and only the misses) was offered for persistence.
  EXPECT_EQ(cache.stored.size(), suite.size() - 1);
  for (const auto& [id, outcome] : cache.stored) {
    EXPECT_NE(id, suite.instances()[0].id);
  }
  for (std::size_t i = 1; i < suite.size(); ++i) {
    EXPECT_FALSE(report.results[i].cached) << i;
  }
}

TEST(BatchRunnerTest, CacheHitsCountTowardCompletionNotJson) {
  const InstanceSuite suite = smallBatchSuite();
  // Full-hit cache primed from a real run: the rendering must be
  // byte-identical to the uncached one (cache state never leaks into it).
  BatchJsonOptions json;
  json.timing = false;
  FakeCache cache;
  const BatchReport fresh = runBatch(suite, {});
  for (const InstanceResult& r : fresh.results) {
    cache.hits[r.id] = r.outcome;
  }
  BatchOptions options;
  options.cache = &cache;
  const BatchReport cached = runBatch(suite, options);
  EXPECT_EQ(cached.cacheHits, suite.size());
  EXPECT_TRUE(cache.stored.empty());
  EXPECT_EQ(batchReportJson("unit", cached, json),
            batchReportJson("unit", fresh, json));
}

// ---- BatchIndex -----------------------------------------------------------

TEST(BatchIndexTest, MatchesTheLinearScanItReplaces) {
  const InstanceSuite suite = smallBatchSuite();
  const BatchReport report = runBatch(suite, {});
  const BatchIndex index(report);

  // The index answers exactly like the old first-match linear scan.
  const auto scan = [&](const std::string& group, int seed,
                        const std::string& strategy) -> const
      InstanceResult* {
    for (const InstanceResult& r : report.results) {
      if (!r.ran || r.group != group || r.seedIndex != seed) continue;
      if (!strategy.empty() &&
          (!r.outcome.hasReport || r.outcome.report.strategy != strategy)) {
        continue;
      }
      return &r;
    }
    return nullptr;
  };
  for (const std::string group : {"n12", "n20", "n99"}) {
    for (int seed = 0; seed < 3; ++seed) {
      for (const std::string strategy : {"", "AH", "MH", "SA", "PSA"}) {
        EXPECT_EQ(index.find(group, seed, strategy),
                  scan(group, seed, strategy))
            << group << "/" << seed << "/" << strategy;
      }
    }
  }
}

TEST(BatchIndexTest, SkipsInstancesThatNeverRan) {
  const InstanceSuite suite = smallBatchSuite();
  StopToken stop;
  BatchOptions options;
  options.shards = 1;
  options.stop = &stop;
  std::size_t seen = 0;
  options.onInstanceDone = [&](const InstanceResult&) {
    if (++seen == 2) stop.requestStop();
  };
  const BatchReport partial = runBatch(suite, options);
  const BatchIndex index(partial);
  EXPECT_NE(index.find("n12", 0, "AH"), nullptr);
  EXPECT_EQ(index.find("n20", 1, "SA"), nullptr);  // skipped by the stop
}

// ---- the named paper sweeps ----------------------------------------------

TEST(SweepBuildersTest, NamedSweepsBuildCanonicalNonEmptySuites) {
  SweepScale tiny;
  tiny.name = "tiny";
  tiny.seeds = 1;
  tiny.saIterations = 50;
  tiny.sizes = {40};
  tiny.futureAppsPerInstance = 2;

  for (const std::string& name : sweepNames()) {
    const InstanceSuite first = namedSweep(name, tiny);
    const InstanceSuite second = namedSweep(name, tiny);
    ASSERT_GT(first.size(), 0u) << name;
    ASSERT_EQ(first.size(), second.size()) << name;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < first.size(); ++i) {
      const BatchInstance& a = first.instances()[i];
      const BatchInstance& b = second.instances()[i];
      EXPECT_EQ(a.id, b.id) << name;
      EXPECT_EQ(a.suiteSeed, b.suiteSeed) << name;
      for (const std::string& seen : ids) {
        EXPECT_NE(seen, a.id) << name << ": duplicate id";
      }
      ids.push_back(a.id);
    }
  }
  EXPECT_THROW((void)namedSweep("nope", tiny), std::invalid_argument);
}

TEST(SweepBuildersTest, ExplicitScaleNamesAreStrict) {
  EXPECT_EQ(sweepScaleNamed("smoke").name, "smoke");
  EXPECT_EQ(sweepScaleNamed("default").name, "default");
  EXPECT_EQ(sweepScaleNamed("full").name, "full");
  // A typo must fail loudly, not silently run the wrong experiment.
  EXPECT_THROW((void)sweepScaleNamed("ful"), std::invalid_argument);
}

TEST(SweepBuildersTest, SweepShapesMatchTheLegacyLoops) {
  SweepScale tiny;
  tiny.seeds = 2;
  tiny.sizes = {40, 160, 320};
  tiny.futureAppsPerInstance = 2;

  // quality/runtime: sizes x seeds x 3 strategies.
  EXPECT_EQ(qualitySweep(tiny).size(), 3u * 2u * 3u);
  EXPECT_EQ(runtimeSweep(tiny).size(), 3u * 2u * 3u);
  // future: sizes below 240 plus 240, 2 strategies.
  EXPECT_EQ(futureSweep(tiny).size(), 3u * 2u * 2u);
  // weights: 4 cases x seeds, MH only.
  EXPECT_EQ(weightsSweep(tiny).size(), 4u * 2u);
  // increments: seeds x 2 policies, custom jobs.
  const InstanceSuite increments = incrementsSweep(tiny);
  EXPECT_EQ(increments.size(), 2u * 2u);
  for (const BatchInstance& instance : increments.instances()) {
    EXPECT_TRUE(static_cast<bool>(instance.job));
  }
  // The quality sweep reproduces the legacy seeding exactly.
  const InstanceSuite quality = qualitySweep(tiny);
  EXPECT_EQ(quality.instances()[0].suiteSeed, 1000u);
  EXPECT_EQ(quality.instances()[0].options.sa.seed, 1u);
  EXPECT_EQ(quality.instances()[3].suiteSeed, 1001u);
  EXPECT_EQ(quality.instances()[3].options.sa.seed, 2u);
}

}  // namespace
}  // namespace ides
