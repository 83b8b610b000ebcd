// Read-only audit of a sweep store directory (`ides_cli store ls/verify`).
//
// A shared store that fleets write into for months needs an operator's
// view: what records exist (suite, instance, strategy, age), whether each
// one still parses and matches its file name, and what the quarantine has
// accumulated. Unlike SweepStore::load, the audit NEVER mutates the store
// — a record that fails verification is reported with its reason, not
// quarantined, so `store verify` is safe to run against a store that live
// workers are filling.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ides {

struct StoreRecordInfo {
  std::string fingerprint;  ///< file stem (the content address)
  std::string suite;        ///< record's suite field ("-" when unreadable)
  std::string id;           ///< instance id ("-" when unreadable)
  std::string strategy;     ///< "-" for custom-job records / unreadable
  double ageSeconds = 0.0;  ///< now - file mtime
  bool ok = false;          ///< parsed + schema + fingerprint all check out
  std::string error;        ///< why verification failed (ok == false)
};

struct StoreAuditReport {
  /// Every records/*.json, sorted by fingerprint (deterministic output).
  std::vector<StoreRecordInfo> records;
  /// File names under quarantine/, sorted.
  std::vector<std::string> quarantined;
  std::size_t okCount = 0;
  std::size_t badCount = 0;
  /// Tmp files of durable publishes (storeTmpFiles): not records, and not
  /// corruption either.
  std::size_t tmpFiles = 0;
};

/// The tmp files that durable publishes (util/durable_file.h) left in
/// `dir`, a SweepStore root, sorted: record writes
/// `records/<fp>.json.tmp.<host>.<pid>.<n>` and manifest writes
/// `manifest.json.tmp.<host>.<pid>`. A live writer holds one only for the
/// publish itself; one that stays belongs to a writer that died before its
/// rename.
std::vector<std::string> storeTmpFiles(const std::string& dir);

/// Scans `dir` (a SweepStore root). Throws std::runtime_error when the
/// directory does not look like a store (no records/ subdirectory).
StoreAuditReport auditSweepStore(const std::string& dir);

/// `store ls` rendering: one line per record (fingerprint, suite, id,
/// strategy, age) plus a summary with the quarantine and tmp file counts.
std::string storeLsText(const StoreAuditReport& report);

/// `store verify` rendering: per-record failures with reasons, quarantine
/// contents, ok/bad/quarantined/tmp summary.
std::string storeVerifyText(const StoreAuditReport& report);

}  // namespace ides
