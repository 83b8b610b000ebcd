#include "store/sweep_store.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/batch_suites.h"
#include "obs/telemetry.h"
#include "util/durable_file.h"
#include "util/json_reader.h"
#include "util/provenance.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ides {

namespace fs = std::filesystem;

namespace {

/// %.17g: enough digits that strtod recovers the exact double, so a loaded
/// record re-renders (%.6g in the BENCH json) byte-identically to the
/// original run.
std::string roundTripNum(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string uniqueSuffix() {
  static std::atomic<std::uint64_t> counter{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(getpid());
#else
  const long pid = 0;
#endif
  // Hostname included: pids collide across the machines sharing a store
  // directory, and a colliding tmp name would let a slow writer scribble
  // into a record another machine already renamed into place.
  std::string suffix = buildProvenance().hostname;
  suffix += '.';
  suffix += std::to_string(pid);
  suffix += '.';
  suffix += std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  return suffix;
}

/// A record must re-render exactly on load; "inf"/"nan" from %.17g would
/// make it permanently unparseable to the strict reader (quarantined and
/// re-run on every resume, forever), so non-finite outcomes are refused.
bool outcomeIsFinite(const InstanceOutcome& outcome) {
  if (outcome.hasReport) {
    const RunReport& report = outcome.report;
    for (const double v : {report.objective, report.metrics.c1p,
                           report.metrics.c1m, report.seconds}) {
      if (!std::isfinite(v)) return false;
    }
  }
  for (const auto& [key, value] : outcome.extras.fields) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

}  // namespace

std::string renderSweepRecord(const std::string& fingerprint,
                              const std::string& suiteName,
                              const std::string& instanceId,
                              const InstanceOutcome& outcome) {
  const Provenance& prov = buildProvenance();
  std::string out = "{\n";
  out += "  \"schema\": " + std::to_string(SweepStore::kSchemaVersion) +
         ",\n";
  // The fingerprint epoch the record was produced under. Informational for
  // readers (the fingerprint already folds it in, so an old-epoch record
  // can never be LOADED against new code) — `store gc --epoch` uses it to
  // find superseded records. Absent in pre-epoch-field records (= epoch
  // numbers below the field's introduction).
  out += "  \"epoch\": " + std::to_string(kSweepFingerprintEpoch) + ",\n";
  out += "  \"fingerprint\": " + jsonQuote(fingerprint) + ",\n";
  out += "  \"suite\": " + jsonQuote(suiteName) + ",\n";
  out += "  \"id\": " + jsonQuote(instanceId) + ",\n";
  out += "  \"git_sha\": " + jsonQuote(prov.gitSha) + ",\n";
  out += "  \"hostname\": " + jsonQuote(prov.hostname) + ",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(prov.hardwareConcurrency) + ",\n";
  out += "  \"compiler\": " + jsonQuote(prov.compiler) + ",\n";
  out += std::string("  \"has_report\": ") +
         (outcome.hasReport ? "true" : "false") + ",\n";
  if (outcome.hasReport) {
    const RunReport& report = outcome.report;
    out += "  \"strategy\": " + jsonQuote(report.strategy) + ",\n";
    out += std::string("  \"feasible\": ") +
           (report.feasible ? "true" : "false") + ",\n";
    out += "  \"objective\": " + roundTripNum(report.objective) + ",\n";
    out += "  \"c1p\": " + roundTripNum(report.metrics.c1p) + ",\n";
    out += "  \"c1m\": " + roundTripNum(report.metrics.c1m) + ",\n";
    out += "  \"c2p\": " +
           std::to_string(static_cast<long long>(report.metrics.c2p)) +
           ",\n";
    out += "  \"c2m_bytes\": " +
           std::to_string(static_cast<long long>(report.metrics.c2mBytes)) +
           ",\n";
    out += "  \"evaluations\": " + std::to_string(report.evaluations) +
           ",\n";
    out += std::string("  \"run_stopped\": ") +
           (report.stopped ? "true" : "false") + ",\n";
    out += "  \"seconds\": " + roundTripNum(report.seconds) + ",\n";
  }
  out += "  \"extras\": [";
  bool first = true;
  for (const auto& [key, value] : outcome.extras.fields) {
    out += first ? "\n    [" : ",\n    [";
    first = false;
    out += jsonQuote(key) + ", " + roundTripNum(value) + "]";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

InstanceOutcome parseSweepRecord(const JsonValue& root,
                                 const std::string& fingerprint) {
  if (root.intAt("schema") != SweepStore::kSchemaVersion) {
    throw std::runtime_error("record schema mismatch");
  }
  if (root.stringAt("fingerprint") != fingerprint) {
    throw std::runtime_error("record fingerprint does not match file name");
  }
  InstanceOutcome outcome;
  outcome.hasReport = root.boolAt("has_report");
  if (outcome.hasReport) {
    RunReport& report = outcome.report;
    report.strategy = root.stringAt("strategy");
    report.feasible = root.boolAt("feasible");
    report.objective = root.numberAt("objective");
    report.metrics.c1p = root.numberAt("c1p");
    report.metrics.c1m = root.numberAt("c1m");
    report.metrics.c2p = root.intAt("c2p");
    report.metrics.c2mBytes = root.intAt("c2m_bytes");
    report.evaluations =
        static_cast<std::size_t>(root.intAt("evaluations"));
    report.stopped = root.boolAt("run_stopped");
    report.seconds = root.numberAt("seconds");
  }
  const JsonValue& extras = root.at("extras");
  if (!extras.isArray()) throw std::runtime_error("extras is not an array");
  for (const JsonValue& entry : extras.items) {
    if (!entry.isArray() || entry.items.size() != 2 ||
        entry.items[0].kind != JsonValue::Kind::String ||
        entry.items[1].kind != JsonValue::Kind::Number) {
      throw std::runtime_error("malformed extras entry");
    }
    outcome.extras.add(entry.items[0].stringValue,
                       entry.items[1].numberValue);
  }
  return outcome;
}

SweepStore::SweepStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "records", ec);
  if (!ec) fs::create_directories(fs::path(dir_) / "quarantine", ec);
  if (ec) {
    throw std::runtime_error("SweepStore: cannot create " + dir_ + ": " +
                             ec.message());
  }
}

std::string SweepStore::recordPath(const std::string& fingerprint) const {
  return (fs::path(dir_) / "records" / (fingerprint + ".json")).string();
}

bool SweepStore::contains(const std::string& fingerprint) const {
  std::error_code ec;
  return fs::exists(recordPath(fingerprint), ec);
}

std::size_t SweepStore::recordCount() const {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "records", ec)) {
    if (entry.path().extension() == ".json") ++count;
  }
  return count;
}

bool SweepStore::outcomeIsComplete(const InstanceOutcome& outcome) {
  if (outcome.hasReport && outcome.report.stopped) return false;
  for (const auto& [key, value] : outcome.extras.fields) {
    if (key == "run_stopped" && value != 0.0) return false;
  }
  return true;
}

namespace {

/// Durable tmp+rename publish of a rendered record document; first writer
/// wins.
bool publishRecordText(const std::string& finalPath,
                       const std::string& text) {
  std::error_code ec;
  if (fs::exists(finalPath, ec)) return false;
  // First writer wins: a record that appeared while ours was written is
  // equivalent (only wall-clock differs), keep it and drop ours. The
  // exists/rename race window leaves at worst the concurrent writer's
  // equally valid record in place — rename is atomic either way.
  const bool published = publishFileDurably(
      finalPath + ".tmp." + uniqueSuffix(), finalPath, text, "SweepStore",
      [&finalPath] {
        std::error_code existsEc;
        return !fs::exists(finalPath, existsEc);
      });
  if (!published) return false;
  telemetry()
      .counter("ides_store_records_written_total",
               "Sweep records published into the store")
      .add();
  return true;
}

}  // namespace

bool SweepStore::store(const std::string& fingerprint,
                       const std::string& suiteName,
                       const std::string& instanceId,
                       const InstanceOutcome& outcome) {
  if (!outcomeIsComplete(outcome) || !outcomeIsFinite(outcome)) {
    return false;
  }
  return publishRecordText(
      recordPath(fingerprint),
      renderSweepRecord(fingerprint, suiteName, instanceId, outcome));
}

bool SweepStore::storeRecordText(const std::string& fingerprint,
                                 const std::string& text) {
  // Full validation before any byte hits the records directory: a remote
  // worker's document goes through the same parser that load() trusts, so
  // a malformed upload is rejected here instead of quarantined later.
  InstanceOutcome outcome;
  try {
    outcome = parseSweepRecord(parseJson(text), fingerprint);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("SweepStore: invalid record: ") +
                             e.what());
  }
  if (!outcomeIsComplete(outcome)) {
    throw std::runtime_error(
        "SweepStore: invalid record: partial (stopped) outcome refused");
  }
  if (!outcomeIsFinite(outcome)) {
    throw std::runtime_error(
        "SweepStore: invalid record: non-finite value refused");
  }
  return publishRecordText(recordPath(fingerprint), text);
}

std::optional<InstanceOutcome> SweepStore::load(
    const std::string& fingerprint) {
  const std::string path = recordPath(fingerprint);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  in.close();
  try {
    InstanceOutcome outcome = parseSweepRecord(parseJson(text), fingerprint);
    telemetry()
        .counter("ides_store_records_read_total",
                 "Sweep records loaded from the store")
        .add();
    return outcome;
  } catch (const std::exception&) {
    quarantine(fingerprint);
    return std::nullopt;
  }
}

void SweepStore::quarantine(const std::string& fingerprint) {
  const std::string from = recordPath(fingerprint);
  const std::string to =
      (fs::path(dir_) / "quarantine" /
       (fingerprint + ".json." + uniqueSuffix()))
          .string();
  std::error_code ec;
  fs::rename(from, to, ec);  // best effort; a lost race just means a peer
  ++quarantined_;            // quarantined the same corrupt file first
  telemetry()
      .counter("ides_store_quarantined_total",
               "Corrupt sweep records moved to quarantine")
      .add();
}

SweepStoreCache::SweepStoreCache(SweepStore& store, std::string suiteName,
                                 bool reuse)
    : store_(store), suiteName_(std::move(suiteName)), reuse_(reuse) {}

bool SweepStoreCache::lookup(const BatchInstance& instance,
                             InstanceOutcome& outcome) {
  if (!reuse_) return false;
  std::optional<InstanceOutcome> loaded =
      store_.load(instanceFingerprint(suiteName_, instance));
  telemetry()
      .counter("ides_store_sweep_cache_total",
               "Sweep-instance cache lookups against the store",
               {{"result", loaded.has_value() ? "hit" : "miss"}})
      .add();
  if (!loaded.has_value()) return false;
  outcome = std::move(*loaded);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SweepStoreCache::store(const BatchInstance& instance,
                            const InstanceOutcome& outcome) {
  if (store_.store(instanceFingerprint(suiteName_, instance), suiteName_,
                   instance.id, outcome)) {
    stored_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ides
