// Store GC: candidate selection (quarantine always, records only via an
// explicit epoch or age predicate), live-manifest protection (including
// the protect-everything fallback on a malformed manifest), and the
// dry-run-by-default contract. Record files are synthesized directly —
// the GC reads only the "epoch" field and the file mtime, never the full
// record schema.
#include "store/store_gc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "store/sweep_store.h"
#include "store/work_queue.h"

namespace ides {
namespace {

namespace fs = std::filesystem;

std::string freshStore(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ides_gc_" + name;
  fs::remove_all(dir);
  SweepStore store(dir);  // creates records/ and quarantine/
  return dir;
}

void writeFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

bool listsPath(const StoreGcReport& report, const fs::path& path) {
  return std::any_of(report.remove.begin(), report.remove.end(),
                     [&](const StoreGcAction& action) {
                       return action.path == path.string();
                     });
}

TEST(StoreGcTest, RefusesDirectoriesThatAreNotStores) {
  const std::string dir = ::testing::TempDir() + "ides_gc_notastore";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_THROW((void)gcSweepStore(dir, {}), std::runtime_error);
}

TEST(StoreGcTest, WithoutPredicatesOnlyQuarantineIsCandidate) {
  const std::string dir = freshStore("default");
  writeFile(fs::path(dir) / "records" / "aaaa.json", "{\"epoch\": 0}");
  writeFile(fs::path(dir) / "quarantine" / "bad.json", "garbage");

  const StoreGcReport report = gcSweepStore(dir, {});
  ASSERT_EQ(report.remove.size(), 1u);
  EXPECT_EQ(report.remove[0].reason, "quarantined");
  EXPECT_EQ(report.kept, 1u);
  EXPECT_FALSE(report.applied);
  // Dry run is the default: nothing was deleted.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / "bad.json"));

  StoreGcOptions apply;
  apply.apply = true;
  const StoreGcReport applied = gcSweepStore(dir, apply);
  EXPECT_TRUE(applied.applied);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "quarantine" / "bad.json"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "records" / "aaaa.json"));
}

TEST(StoreGcTest, EpochPredicateReapsOnlyParseableOldRecords) {
  const std::string dir = freshStore("epoch");
  const fs::path records = fs::path(dir) / "records";
  writeFile(records / "old.json", "{\"epoch\": 0}");
  writeFile(records / "fresh.json", "{\"epoch\": 1}");
  writeFile(records / "prefield.json", "{}");  // predates the field -> 0
  writeFile(records / "corrupt.json", "not json at all");
  writeFile(records / "inflight.json.tmp.1234", "{}");  // never touched

  StoreGcOptions options;
  options.epoch = 1;
  const StoreGcReport report = gcSweepStore(dir, options);
  ASSERT_EQ(report.remove.size(), 2u);
  EXPECT_TRUE(listsPath(report, records / "old.json"));
  EXPECT_TRUE(listsPath(report, records / "prefield.json"));
  EXPECT_EQ(report.remove[0].reason, "superseded (epoch 0 < 1)");
  // The unparseable record is load()'s quarantine business, not the GC's;
  // the current-epoch record and the tmp file are untouched.
  EXPECT_EQ(report.kept, 2u);
}

TEST(StoreGcTest, OlderThanPredicateUsesFileAge) {
  const std::string dir = freshStore("age");
  const fs::path records = fs::path(dir) / "records";
  writeFile(records / "ancient.json", "{}");
  writeFile(records / "recent.json", "{}");
  fs::last_write_time(records / "ancient.json",
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(180));

  StoreGcOptions options;
  options.olderThanSeconds = 60.0;
  const StoreGcReport report = gcSweepStore(dir, options);
  ASSERT_EQ(report.remove.size(), 1u);
  EXPECT_EQ(report.remove[0].path, (records / "ancient.json").string());
  EXPECT_EQ(report.remove[0].reason, "older than 60s");
  EXPECT_EQ(report.kept, 1u);
}

TEST(StoreGcTest, LiveManifestProtectsItsFingerprints) {
  const std::string dir = freshStore("manifest");
  const fs::path records = fs::path(dir) / "records";
  SweepScale tiny;
  tiny.name = "tiny";
  tiny.seeds = 1;
  tiny.saIterations = 60;
  tiny.sizes = {40};
  tiny.futureAppsPerInstance = 2;
  const InstanceSuite suite = namedSweep("increments", tiny);
  const SweepManifest manifest = makeManifest("increments", tiny, suite);
  writeManifest(dir, manifest);

  const std::string liveFp = manifest.items[0].fingerprint;
  writeFile(records / (liveFp + ".json"), "{\"epoch\": 0}");
  writeFile(records / "orphan.json", "{\"epoch\": 0}");

  StoreGcOptions options;
  options.epoch = 1;
  options.apply = true;
  const StoreGcReport report = gcSweepStore(dir, options);
  ASSERT_EQ(report.remove.size(), 1u);
  EXPECT_EQ(report.remove[0].fingerprint, "orphan");
  EXPECT_EQ(report.protectedByManifest, 1u);
  // Even under --apply, a record the in-flight sweep still references
  // survives; the orphan is gone.
  EXPECT_TRUE(fs::exists(records / (liveFp + ".json")));
  EXPECT_FALSE(fs::exists(records / "orphan.json"));
}

TEST(StoreGcTest, MalformedManifestProtectsEverything) {
  const std::string dir = freshStore("poisoned");
  writeFile(fs::path(dir) / "manifest.json", "{ not a manifest");
  writeFile(fs::path(dir) / "records" / "old.json", "{\"epoch\": 0}");

  StoreGcOptions options;
  options.epoch = 1;
  const StoreGcReport report = gcSweepStore(dir, options);
  EXPECT_TRUE(report.remove.empty());
  EXPECT_EQ(report.protectedByManifest, 1u);
  EXPECT_EQ(report.kept, 1u);
}

TEST(StoreGcTest, OrphanedWritesAreReapedAfterAnHour) {
  const std::string dir = freshStore("orphans");
  const fs::path root(dir);
  const fs::path records = root / "records";
  const fs::path agedRecord = records / "aaaa.json.tmp.host.1.0";
  const fs::path agedManifest = root / "manifest.json.tmp.host.1";
  const fs::path freshRecord = records / "bbbb.json.tmp.host.2.0";
  const fs::path freshManifest = root / "manifest.json.tmp.host.2";
  for (const fs::path& path :
       {agedRecord, agedManifest, freshRecord, freshManifest}) {
    writeFile(path, "{");
  }
  for (const fs::path& path : {agedRecord, agedManifest}) {
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::hours(2));
  }

  const StoreGcReport dry = gcSweepStore(dir, {});
  ASSERT_EQ(dry.remove.size(), 2u);
  EXPECT_TRUE(listsPath(dry, agedRecord));
  EXPECT_TRUE(listsPath(dry, agedManifest));
  for (const StoreGcAction& action : dry.remove) {
    EXPECT_EQ(action.reason, "orphaned write");
  }
  EXPECT_EQ(dry.freshTmpFiles, 2u);
  EXPECT_NE(storeGcText(dry, {}).find("2 tmp file(s) younger than 3600s"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(agedRecord));

  StoreGcOptions apply;
  apply.apply = true;
  const StoreGcReport applied = gcSweepStore(dir, apply);
  EXPECT_EQ(applied.remove.size(), 2u);
  EXPECT_FALSE(fs::exists(agedRecord));
  EXPECT_FALSE(fs::exists(agedManifest));
  EXPECT_TRUE(fs::exists(freshRecord));
  EXPECT_TRUE(fs::exists(freshManifest));
}

TEST(StoreGcTest, TextReportsDryRunAndAppliedPhrasing) {
  const std::string dir = freshStore("text");
  writeFile(fs::path(dir) / "quarantine" / "bad.json", "junk");

  const StoreGcReport dry = gcSweepStore(dir, {});
  const std::string dryText = storeGcText(dry, {});
  EXPECT_NE(dryText.find("would remove "), std::string::npos);
  EXPECT_NE(dryText.find("1 removable, 0 kept"), std::string::npos);
  EXPECT_NE(dryText.find("re-run with --apply"), std::string::npos);

  StoreGcOptions options;
  options.apply = true;
  const StoreGcReport applied = gcSweepStore(dir, options);
  const std::string appliedText = storeGcText(applied, options);
  EXPECT_NE(appliedText.find("removed "), std::string::npos);
  EXPECT_EQ(appliedText.find("would remove"), std::string::npos);
  EXPECT_EQ(appliedText.find("re-run with --apply"), std::string::npos);
}

}  // namespace
}  // namespace ides
