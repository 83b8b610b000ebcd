#include "serve/sweep_coordinator.h"

#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "core/batch_suites.h"
#include "obs/telemetry.h"

namespace ides {

namespace {

/// One HTTP-transport lease lifecycle event; the file transport feeds the
/// same family with transport="file" from store/work_queue.cpp. The
/// sweep-fault CI leg asserts a "reclaim" shows up on the coordinator's
/// /metrics after a worker is SIGKILLed mid-claim.
void leaseEvent(const char* event, std::uint64_t n = 1) {
  if (!telemetryEnabled() || n == 0) return;
  telemetry()
      .counter("ides_sweep_lease_events_total",
               "Sweep lease lifecycle events (claim, renew, reclaim, lost) "
               "by transport",
               {{"event", event}, {"transport", "http"}})
      .add(n);
}

}  // namespace

SweepCoordinator::SweepCoordinator(std::string storeDir)
    : store_(std::move(storeDir)) {}

void SweepCoordinator::create(const std::string& key,
                              const std::string& sweepName,
                              const std::string& scaleName) {
  if (!validSweepKey(key)) {
    throw std::invalid_argument(
        "sweep key must be non-empty [A-Za-z0-9._-]+ (got \"" + key + "\")");
  }
  // Build outside the lock: namedSweep validates the names (throwing
  // std::invalid_argument on unknown ones) and instance construction is
  // the expensive part.
  const SweepScale scale = sweepScaleNamed(scaleName);
  const InstanceSuite suite = namedSweep(sweepName, scale);
  SweepManifest manifest = makeManifest(sweepName, scale, suite);
  std::string text = manifestJson(manifest);

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sweeps_.find(key);
  if (it != sweeps_.end()) {
    if (it->second.sweepName == sweepName &&
        it->second.scaleName == scaleName) {
      return;  // idempotent re-registration
    }
    throw std::invalid_argument(
        "sweep key \"" + key + "\" already registered as " +
        it->second.sweepName + "/" + it->second.scaleName);
  }
  Sweep sweep;
  sweep.sweepName = sweepName;
  sweep.scaleName = scaleName;
  sweep.manifest = std::move(manifest);
  sweep.manifestText = std::move(text);
  sweeps_.emplace(key, std::move(sweep));
}

bool SweepCoordinator::exists(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sweeps_.count(key) != 0;
}

std::vector<std::string> SweepCoordinator::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sweeps_.size());
  for (const auto& [key, sweep] : sweeps_) out.push_back(key);
  return out;
}

SweepCoordinator::Sweep& SweepCoordinator::sweepAt(const std::string& key) {
  const auto it = sweeps_.find(key);
  if (it == sweeps_.end()) {
    throw std::invalid_argument("no such sweep \"" + key + "\"");
  }
  return it->second;
}

const SweepCoordinator::Sweep& SweepCoordinator::sweepAt(
    const std::string& key) const {
  const auto it = sweeps_.find(key);
  if (it == sweeps_.end()) {
    throw std::invalid_argument("no such sweep \"" + key + "\"");
  }
  return it->second;
}

std::string SweepCoordinator::manifestText(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sweepAt(key).manifestText;
}

void SweepCoordinator::expireLeasesLocked(Sweep& sweep) const {
  const auto now = std::chrono::steady_clock::now();
  std::uint64_t reclaimed = 0;
  for (auto it = sweep.leases.begin(); it != sweep.leases.end();) {
    if (it->second.expiry <= now) {
      it = sweep.leases.erase(it);  // the arbiter's stale-lease reclaim
      ++reclaimed;
    } else {
      ++it;
    }
  }
  leaseEvent("reclaim", reclaimed);
}

CoordinatorClaim SweepCoordinator::claim(const std::string& key,
                                         const std::string& worker,
                                         double leaseSeconds) {
  if (!(leaseSeconds > 0.0 && leaseSeconds <= kMaxLeaseSeconds)) {
    char message[96];
    std::snprintf(message, sizeof(message),
                  "lease_seconds must be in (0, %g] (got %g)",
                  kMaxLeaseSeconds, leaseSeconds);
    throw std::invalid_argument(message);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Sweep& sweep = sweepAt(key);
  expireLeasesLocked(sweep);

  CoordinatorClaim out;
  bool allRecorded = true;
  for (const WorkItem& item : sweep.manifest.items) {
    if (store_.contains(item.fingerprint)) continue;
    allRecorded = false;
    if (sweep.leases.count(item.fingerprint) != 0) continue;  // live peer
    Lease lease;
    lease.worker = worker;
    lease.seconds = leaseSeconds;
    lease.expiry = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(leaseSeconds));
    sweep.leases[item.fingerprint] = std::move(lease);
    leaseEvent("claim");
    out.kind = CoordinatorClaim::Kind::Claimed;
    out.item = item;
    return out;
  }
  out.kind = allRecorded ? CoordinatorClaim::Kind::Done
                         : CoordinatorClaim::Kind::Wait;
  return out;
}

bool SweepCoordinator::renew(const std::string& key,
                             const std::string& worker,
                             const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  Sweep& sweep = sweepAt(key);
  expireLeasesLocked(sweep);
  const auto it = sweep.leases.find(fingerprint);
  // An expired or re-assigned lease renews as false: the worker loses
  // cleanly and discards its in-flight result.
  if (it == sweep.leases.end() || it->second.worker != worker) {
    leaseEvent("lost");
    return false;
  }
  it->second.expiry = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(it->second.seconds));
  leaseEvent("renew");
  return true;
}

void SweepCoordinator::release(const std::string& key,
                               const std::string& worker,
                               const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  Sweep& sweep = sweepAt(key);
  const auto it = sweep.leases.find(fingerprint);
  if (it != sweep.leases.end() && it->second.worker == worker) {
    sweep.leases.erase(it);
  }
}

bool SweepCoordinator::complete(const std::string& key,
                                const std::string& worker,
                                const std::string& fingerprint,
                                const std::string& recordText) {
  std::lock_guard<std::mutex> lock(mutex_);
  Sweep& sweep = sweepAt(key);
  bool known = false;
  for (const WorkItem& item : sweep.manifest.items) {
    if (item.fingerprint == fingerprint) {
      known = true;
      break;
    }
  }
  if (!known) {
    throw std::invalid_argument("fingerprint \"" + fingerprint +
                                "\" is not in sweep \"" + key + "\"");
  }
  // storeRecordText validates (parse, schema, fingerprint, completeness)
  // and publishes first-writer-wins; throws std::runtime_error on an
  // invalid document. A record landing always clears the lease — whoever
  // held it, the instance is finished.
  const bool stored = store_.storeRecordText(fingerprint, recordText);
  (void)worker;  // completion is keyed by the record, not the holder
  sweep.leases.erase(fingerprint);
  return stored;
}

CoordinatorSweepStatus SweepCoordinator::status(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Sweep& sweep = sweepAt(key);
  const auto now = std::chrono::steady_clock::now();
  CoordinatorSweepStatus out;
  out.total = sweep.manifest.items.size();
  for (const WorkItem& item : sweep.manifest.items) {
    if (store_.contains(item.fingerprint)) ++out.recorded;
  }
  for (const auto& [fingerprint, lease] : sweep.leases) {
    if (lease.expiry > now) ++out.leased;
  }
  out.done = out.recorded == out.total;
  return out;
}

std::optional<std::string> SweepCoordinator::resultJson(
    const std::string& key) {
  std::string sweepName;
  std::string scaleName;
  SweepManifest manifest;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Sweep& sweep = sweepAt(key);
    sweepName = sweep.sweepName;
    scaleName = sweep.scaleName;
    manifest = sweep.manifest;
  }
  // Rebuild the suite outside the lock (construction cost, no shared
  // state) and merge from the store in canonical order — the exact path
  // `sweep --serve` takes, hence the exact bytes.
  const SweepScale scale = sweepScaleNamed(scaleName);
  const InstanceSuite suite = namedSweep(sweepName, scale);
  BatchReport report = reportFromStore(suite, store_);
  if (report.completed != report.results.size()) return std::nullopt;
  BatchJsonOptions json;
  json.scale = scale.name;
  json.timing = false;
  return batchReportJson("sweep_" + sweepName, report, json);
}

}  // namespace ides
