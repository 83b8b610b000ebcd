// Store audit (`ides_cli store ls/verify`): reports every record with its
// identity, flags corrupt ones with a reason, lists the quarantine — and,
// unlike SweepStore::load, never mutates the store it inspects.
#include "store/store_audit.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

#include "store/sweep_store.h"

namespace ides {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ides_audit_" + name;
  fs::remove_all(dir);
  return dir;
}

InstanceOutcome outcomeFor(const char* strategy) {
  InstanceOutcome outcome;
  outcome.report.strategy = strategy;
  outcome.report.feasible = true;
  outcome.report.objective = 12.5;
  outcome.report.metrics.c1p = 0.25;
  outcome.report.metrics.c2p = 400;
  outcome.report.evaluations = 100;
  outcome.report.seconds = 0.5;
  return outcome;
}

TEST(StoreAuditTest, ThrowsOnDirectoryThatIsNotAStore) {
  const std::string dir = freshDir("notastore");
  fs::create_directories(dir);  // exists, but has no records/
  EXPECT_THROW(auditSweepStore(dir), std::runtime_error);
}

TEST(StoreAuditTest, ReportsHealthyRecordsSortedByFingerprint) {
  const std::string dir = freshDir("healthy");
  SweepStore store(dir);
  ASSERT_TRUE(store.store("bbb", "fig-quality", "n40/s0/MH",
                          outcomeFor("MH")));
  ASSERT_TRUE(store.store("aaa", "fig-quality", "n40/s0/AH",
                          outcomeFor("AH")));

  const StoreAuditReport report = auditSweepStore(dir);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.okCount, 2u);
  EXPECT_EQ(report.badCount, 0u);
  EXPECT_TRUE(report.quarantined.empty());

  EXPECT_EQ(report.records[0].fingerprint, "aaa");
  EXPECT_EQ(report.records[0].suite, "fig-quality");
  EXPECT_EQ(report.records[0].id, "n40/s0/AH");
  EXPECT_EQ(report.records[0].strategy, "AH");
  EXPECT_TRUE(report.records[0].ok);
  EXPECT_EQ(report.records[1].fingerprint, "bbb");
  EXPECT_EQ(report.records[1].strategy, "MH");

  const std::string ls = storeLsText(report);
  EXPECT_NE(ls.find("aaa"), std::string::npos);
  EXPECT_NE(ls.find("n40/s0/MH"), std::string::npos);
  EXPECT_NE(ls.find("2 record(s), 0 quarantined"), std::string::npos);
  EXPECT_EQ(ls.find("[BAD]"), std::string::npos);

  const std::string verify = storeVerifyText(report);
  EXPECT_NE(verify.find("verify: 2 ok, 0 bad, 0 quarantined"),
            std::string::npos);
}

TEST(StoreAuditTest, FlagsCorruptRecordsWithoutQuarantiningThem) {
  const std::string dir = freshDir("corrupt");
  SweepStore store(dir);
  ASSERT_TRUE(store.store("good", "fig-quality", "n40/s0/AH",
                          outcomeFor("AH")));
  ASSERT_TRUE(store.store("mangle", "fig-quality", "n40/s0/MH",
                          outcomeFor("MH")));
  {
    // Truncate one record mid-document: parseable identity gone, invalid
    // JSON — exactly what a crashed writer without the tmp+rename protocol
    // would leave behind.
    std::ofstream out(store.recordPath("mangle"),
                      std::ios::binary | std::ios::trunc);
    out << "{\"schema\": 1, \"suite\": \"fig-qua";
  }

  const StoreAuditReport report = auditSweepStore(dir);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.okCount, 1u);
  EXPECT_EQ(report.badCount, 1u);

  const StoreRecordInfo& bad = report.records[1];
  EXPECT_EQ(bad.fingerprint, "mangle");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  // The audit is read-only: the corrupt record is still in records/, not
  // quarantined, and a later audit sees the same picture.
  EXPECT_TRUE(fs::exists(store.recordPath("mangle")));
  EXPECT_TRUE(report.quarantined.empty());

  EXPECT_NE(storeLsText(report).find("[BAD]"), std::string::npos);
  const std::string verify = storeVerifyText(report);
  EXPECT_NE(verify.find("BAD mangle:"), std::string::npos);
  EXPECT_NE(verify.find("verify: 1 ok, 1 bad, 0 quarantined"),
            std::string::npos);
}

TEST(StoreAuditTest, FlagsFingerprintMismatchByFileName) {
  const std::string dir = freshDir("mismatch");
  SweepStore store(dir);
  ASSERT_TRUE(store.store("original", "fig-quality", "n40/s0/AH",
                          outcomeFor("AH")));
  // A record copied to the wrong address must fail verification even
  // though its contents are a perfectly valid document.
  fs::copy_file(store.recordPath("original"), store.recordPath("imposter"));

  const StoreAuditReport report = auditSweepStore(dir);
  ASSERT_EQ(report.records.size(), 2u);
  const StoreRecordInfo& imposter = report.records[0];
  ASSERT_EQ(imposter.fingerprint, "imposter");
  EXPECT_FALSE(imposter.ok);
  EXPECT_NE(imposter.error.find("fingerprint"), std::string::npos);
  // Identity is still surfaced best-effort so the operator can find the
  // real record.
  EXPECT_EQ(imposter.suite, "fig-quality");
  EXPECT_EQ(imposter.id, "n40/s0/AH");
}

TEST(StoreAuditTest, ListsQuarantinedFiles) {
  const std::string dir = freshDir("quarantine");
  SweepStore store(dir);
  ASSERT_TRUE(store.store("broken", "fig-quality", "n40/s0/AH",
                          outcomeFor("AH")));
  {
    std::ofstream out(store.recordPath("broken"),
                      std::ios::binary | std::ios::trunc);
    out << "not json";
  }
  // load() applies the quarantine protocol; the audit then reports what it
  // moved aside.
  EXPECT_FALSE(store.load("broken").has_value());
  EXPECT_EQ(store.quarantinedCount(), 1u);

  const StoreAuditReport report = auditSweepStore(dir);
  EXPECT_TRUE(report.records.empty());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_NE(report.quarantined[0].find("broken"), std::string::npos);
  EXPECT_NE(storeVerifyText(report).find("quarantined: "),
            std::string::npos);
  EXPECT_NE(storeLsText(report).find("0 record(s), 1 quarantined"),
            std::string::npos);
}

TEST(StoreAuditTest, IgnoresTmpFiles) {
  const std::string dir = freshDir("tmpfiles");
  SweepStore store(dir);
  ASSERT_TRUE(store.store("real", "fig-quality", "n40/s0/AH",
                          outcomeFor("AH")));
  {
    // An in-flight write from a live worker must not show up in the audit.
    std::ofstream out(fs::path(dir) / "records" / "real.json.tmp.1234");
    out << "{";
  }
  const StoreAuditReport report = auditSweepStore(dir);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].fingerprint, "real");
  EXPECT_EQ(report.badCount, 0u);
}

TEST(StoreAuditTest, CountsTmpFilesInRecordsAndAtTheRoot) {
  const std::string dir = freshDir("tmpcount");
  SweepStore store(dir);
  ASSERT_TRUE(store.store("real", "fig-quality", "n40/s0/AH",
                          outcomeFor("AH")));
  const fs::path root(dir);
  const fs::path aged[] = {root / "records" / "real.json.tmp.host.1.0",
                           root / "manifest.json.tmp.host.1"};
  const fs::path fresh[] = {root / "records" / "other.json.tmp.host.2.0",
                            root / "manifest.json.tmp.host.2"};
  for (const fs::path& path : {aged[0], aged[1], fresh[0], fresh[1]}) {
    std::ofstream(path) << "{";
  }
  for (const fs::path& path : aged) {
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::hours(2));
  }

  const StoreAuditReport report = auditSweepStore(dir);
  EXPECT_EQ(report.tmpFiles, 4u);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.badCount, 0u);  // a tmp file is not corruption
  EXPECT_NE(storeLsText(report).find(
                "1 record(s), 0 quarantined, 4 tmp file(s)"),
            std::string::npos);
  EXPECT_NE(storeVerifyText(report).find(
                "verify: 1 ok, 0 bad, 0 quarantined, 4 tmp file(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace ides
