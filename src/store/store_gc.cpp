#include "store/store_gc.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "store/store_audit.h"
#include "store/work_queue.h"
#include "util/json_reader.h"

#include <sys/stat.h>

namespace ides {

namespace fs = std::filesystem;

namespace {

/// File age against the LOCAL clock. GC is an operator action, not a
/// correctness arbiter like lease staleness — a skewed clock at worst
/// keeps a dead record a while longer or reaps an old one early, and the
/// manifest protection below still guards anything live.
bool fileAge(const fs::path& path, double& ageSeconds) {
  struct stat st = {};
  if (::stat(path.string().c_str(), &st) != 0) return false;
  ageSeconds = std::difftime(std::time(nullptr), st.st_mtime);
  return true;
}

/// Fingerprints named by a live manifest.json in the store dir, if any —
/// an in-flight distributed sweep whose records must survive.
std::set<std::string> protectedFingerprints(const std::string& dir) {
  std::set<std::string> out;
  try {
    const std::optional<SweepManifest> manifest = readManifest(dir);
    if (manifest.has_value()) {
      for (const WorkItem& item : manifest->items) {
        out.insert(item.fingerprint);
      }
    }
  } catch (const std::exception&) {
    // A malformed manifest still marks the directory as in use; without a
    // readable item list, protect everything by poisoning the scan.
    out.insert("*");
  }
  return out;
}

}  // namespace

StoreGcReport gcSweepStore(const std::string& dir,
                           const StoreGcOptions& options) {
  const fs::path records = fs::path(dir) / "records";
  const fs::path quarantine = fs::path(dir) / "quarantine";
  std::error_code ec;
  if (!fs::is_directory(records, ec)) {
    throw std::runtime_error("store gc: no records directory under " + dir +
                             " (not a sweep store?)");
  }

  StoreGcReport report;
  const std::set<std::string> live = protectedFingerprints(dir);
  const bool protectAll = live.count("*") != 0;

  // Quarantined records: corrupt files moved aside by load(); always
  // candidates — they were kept for inspection, not forever.
  for (const auto& entry : fs::directory_iterator(quarantine, ec)) {
    if (!entry.is_regular_file()) continue;
    report.remove.push_back(
        {entry.path().string(), std::string(), "quarantined"});
  }

  // Orphaned writes: always candidates once old enough. A tmp file is
  // never loaded, so the manifest protection does not apply to it.
  for (const std::string& path : storeTmpFiles(dir)) {
    double age = 0.0;
    if (fileAge(path, age) && age > kOrphanedWriteSeconds) {
      report.remove.push_back({path, std::string(), "orphaned write"});
    } else {
      ++report.freshTmpFiles;
    }
  }

  for (const auto& entry : fs::directory_iterator(records, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".json") continue;  // tmp files: see above
    const std::string fingerprint = path.stem().string();

    std::string reason;
    if (options.epoch >= 0) {
      std::int64_t epoch = 0;  // records predate the epoch field -> 0
      bool parsed = false;
      std::ifstream in(path, std::ios::binary);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        try {
          const JsonValue root = parseJson(buffer.str());
          const JsonValue* field = root.find("epoch");
          epoch = field == nullptr ? 0 : root.intAt("epoch");
          parsed = true;
        } catch (const std::exception&) {
        }
      }
      // Unparseable records are left to load()'s quarantine path — the
      // epoch predicate only reaps what it could actually read.
      if (parsed && epoch < options.epoch) {
        reason = "superseded (epoch " + std::to_string(epoch) + " < " +
                 std::to_string(options.epoch) + ")";
      }
    }
    if (reason.empty() && options.olderThanSeconds >= 0.0) {
      double age = 0.0;
      if (fileAge(path, age) && age > options.olderThanSeconds) {
        reason = "older than " + std::to_string(static_cast<long long>(
                                     options.olderThanSeconds)) + "s";
      }
    }
    if (reason.empty()) {
      ++report.kept;
      continue;
    }
    if (protectAll || live.count(fingerprint) != 0) {
      ++report.protectedByManifest;
      ++report.kept;
      continue;
    }
    report.remove.push_back({path.string(), fingerprint, reason});
  }

  // Deterministic listing (directory iteration order is not).
  std::sort(report.remove.begin(), report.remove.end(),
            [](const StoreGcAction& a, const StoreGcAction& b) {
              return a.path < b.path;
            });

  if (options.apply) {
    for (const StoreGcAction& action : report.remove) {
      fs::remove(action.path, ec);
    }
    report.applied = true;
  }
  return report;
}

std::string storeGcText(const StoreGcReport& report,
                        const StoreGcOptions& options) {
  std::string out;
  for (const StoreGcAction& action : report.remove) {
    out += report.applied ? "removed " : "would remove ";
    out += action.path;
    out += "  (";
    out += action.reason;
    out += ")\n";
  }
  out += "gc: ";
  out += std::to_string(report.remove.size());
  out += report.applied ? " removed, " : " removable, ";
  out += std::to_string(report.kept);
  out += " kept";
  if (report.protectedByManifest > 0) {
    out += " (" + std::to_string(report.protectedByManifest) +
           " matched but protected by a live manifest)";
  }
  if (report.freshTmpFiles > 0) {
    out += ", " + std::to_string(report.freshTmpFiles) +
           " tmp file(s) younger than " +
           std::to_string(static_cast<long long>(kOrphanedWriteSeconds)) +
           "s kept";
  }
  out += "\n";
  if (!report.applied && !report.remove.empty()) {
    out += "dry run — re-run with --apply to delete\n";
  }
  (void)options;
  return out;
}

}  // namespace ides
