#include "store/store_audit.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "store/sweep_store.h"
#include "util/json_reader.h"

namespace ides {

namespace fs = std::filesystem;

namespace {

double fileAgeSeconds(const fs::path& path) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return 0.0;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

std::string ageText(double seconds) {
  char buf[32];
  if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.0fs", seconds);
  } else if (seconds < 7200.0) {
    std::snprintf(buf, sizeof(buf), "%.0fm", seconds / 60.0);
  } else if (seconds < 172800.0) {
    std::snprintf(buf, sizeof(buf), "%.1fh", seconds / 3600.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fd", seconds / 86400.0);
  }
  return buf;
}

StoreRecordInfo auditRecord(const fs::path& path) {
  StoreRecordInfo info;
  info.fingerprint = path.stem().string();
  info.suite = info.id = info.strategy = "-";
  info.ageSeconds = fileAgeSeconds(path);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    info.error = "cannot open";
    return info;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  try {
    const JsonValue root = parseJson(buffer.str());
    // Best-effort identity first, so even a record that fails the strict
    // checks below still lists with whatever identity it carries.
    if (root.isObject()) {
      if (const JsonValue* v = root.find("suite");
          v != nullptr && v->kind == JsonValue::Kind::String) {
        info.suite = v->stringValue;
      }
      if (const JsonValue* v = root.find("id");
          v != nullptr && v->kind == JsonValue::Kind::String) {
        info.id = v->stringValue;
      }
      if (const JsonValue* v = root.find("strategy");
          v != nullptr && v->kind == JsonValue::Kind::String) {
        info.strategy = v->stringValue;
      }
    }
    // The exact acceptance check a resuming sweep would apply.
    (void)parseSweepRecord(root, info.fingerprint);
    info.ok = true;
  } catch (const std::exception& e) {
    info.error = e.what();
  }
  return info;
}

/// A durable publish's tmp file: "<name>.json.tmp.<suffix>". The error
/// code overload: a live writer may rename the file away mid-scan.
bool isTmpWrite(const fs::directory_entry& entry) {
  std::error_code ec;
  return entry.is_regular_file(ec) &&
         entry.path().filename().string().find(".json.tmp.") !=
             std::string::npos;
}

}  // namespace

std::vector<std::string> storeTmpFiles(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const fs::path& where : {fs::path(dir), fs::path(dir) / "records"}) {
    for (const auto& entry : fs::directory_iterator(where, ec)) {
      if (isTmpWrite(entry)) paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

StoreAuditReport auditSweepStore(const std::string& dir) {
  const fs::path records = fs::path(dir) / "records";
  std::error_code ec;
  if (!fs::is_directory(records, ec)) {
    throw std::runtime_error("not a sweep store (no records/ under " + dir +
                             ")");
  }

  StoreAuditReport report;
  for (const auto& entry : fs::directory_iterator(records, ec)) {
    if (entry.path().extension() != ".json") continue;  // tmp files etc.
    report.records.push_back(auditRecord(entry.path()));
  }
  std::sort(report.records.begin(), report.records.end(),
            [](const StoreRecordInfo& a, const StoreRecordInfo& b) {
              return a.fingerprint < b.fingerprint;
            });
  for (const StoreRecordInfo& info : report.records) {
    ++(info.ok ? report.okCount : report.badCount);
  }

  const fs::path quarantine = fs::path(dir) / "quarantine";
  for (const auto& entry : fs::directory_iterator(quarantine, ec)) {
    report.quarantined.push_back(entry.path().filename().string());
  }
  std::sort(report.quarantined.begin(), report.quarantined.end());
  report.tmpFiles = storeTmpFiles(dir).size();
  return report;
}

std::string storeLsText(const StoreAuditReport& report) {
  std::string out;
  for (const StoreRecordInfo& info : report.records) {
    char line[512];
    std::snprintf(line, sizeof(line), "%s  %-14s %-22s %-4s %6s%s\n",
                  info.fingerprint.c_str(), info.suite.c_str(),
                  info.id.c_str(), info.strategy.c_str(),
                  ageText(info.ageSeconds).c_str(),
                  info.ok ? "" : "  [BAD]");
    out += line;
  }
  out += std::to_string(report.records.size()) + " record(s), " +
         std::to_string(report.quarantined.size()) + " quarantined, " +
         std::to_string(report.tmpFiles) + " tmp file(s)\n";
  return out;
}

std::string storeVerifyText(const StoreAuditReport& report) {
  std::string out;
  for (const StoreRecordInfo& info : report.records) {
    if (info.ok) continue;
    out += "BAD " + info.fingerprint + ": " + info.error + "\n";
  }
  for (const std::string& name : report.quarantined) {
    out += "quarantined: " + name + "\n";
  }
  out += "verify: " + std::to_string(report.okCount) + " ok, " +
         std::to_string(report.badCount) + " bad, " +
         std::to_string(report.quarantined.size()) + " quarantined, " +
         std::to_string(report.tmpFiles) + " tmp file(s)\n";
  return out;
}

}  // namespace ides
