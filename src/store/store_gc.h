// Sweep store garbage collection (`ides_cli store gc`).
//
// The store is append-only by design — every mutating path only ever adds
// records. That is the right default for a cache of expensive results, but
// two kinds of file accumulate forever without an explicit reaper:
//
//   * quarantined records: corrupt files load() moved aside. Kept for
//     post-mortems, worthless once inspected.
//   * superseded records: a kSweepFingerprintEpoch bump re-keys every
//     instance, so records written under earlier epochs can never be
//     loaded again (their fingerprints are simply never asked for). They
//     are dead weight with no tombstone.
//   * orphaned writes: the tmp file of a record or manifest publish whose
//     writer died before the rename (a crash, an OOM kill).
//
// GC selects candidates by explicit, conservative predicates and is a
// DRY RUN unless `apply` is set. Records whose fingerprint appears in a
// live manifest.json in the store directory are never touched, whatever
// the predicates say — an in-flight distributed sweep must not lose
// records out from under its participants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ides {

/// Age past which a publish's tmp file is an orphaned write. A publish is
/// one small write plus two fsyncs (util/durable_file.h), so no live
/// writer holds its tmp file anywhere near this long.
inline constexpr double kOrphanedWriteSeconds = 3600.0;

struct StoreGcOptions {
  bool apply = false;  ///< false = report only (the default, and the
                       ///< CLI's default too)
  /// Remove records whose embedded epoch is strictly below this (records
  /// predating the epoch field count as epoch 0). Negative = off.
  std::int64_t epoch = -1;
  /// Remove records whose file is older than this many seconds (also
  /// catches unparseable strays the epoch predicate cannot read).
  /// Negative = off.
  double olderThanSeconds = -1.0;
};

struct StoreGcAction {
  std::string path;
  std::string fingerprint;  ///< empty for quarantine and tmp files
  std::string reason;       ///< "quarantined", "superseded epoch N", "age",
                            ///< "orphaned write"
};

struct StoreGcReport {
  std::vector<StoreGcAction> remove;   ///< selected for removal
  std::size_t kept = 0;                ///< records inspected and kept
  std::size_t protectedByManifest = 0; ///< matched a predicate but live
  std::size_t freshTmpFiles = 0;       ///< tmp files younger than
                                       ///< kOrphanedWriteSeconds, kept
  bool applied = false;                ///< true when files were deleted
};

/// Scans the store and selects removal candidates; deletes them only when
/// `options.apply`. Quarantine files and tmp files older than
/// kOrphanedWriteSeconds (storeTmpFiles, store/store_audit.h) are always
/// candidates; records only via the epoch/age predicates. Throws
/// std::runtime_error when the store directory is missing.
StoreGcReport gcSweepStore(const std::string& dir,
                           const StoreGcOptions& options);

/// Human-readable rendering for the CLI (one line per action + summary).
std::string storeGcText(const StoreGcReport& report,
                        const StoreGcOptions& options);

}  // namespace ides
