#include "store/work_queue.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/telemetry.h"
#include "util/durable_file.h"
#include "util/fault_injection.h"
#include "util/json_reader.h"
#include "util/provenance.h"

#include <sys/stat.h>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ides {

namespace fs = std::filesystem;

namespace {

std::string manifestPath(const std::string& dir) {
  return (fs::path(dir) / "manifest.json").string();
}

std::string stopPath(const std::string& dir) {
  return (fs::path(dir) / "stop").string();
}

/// Age of `path` measured against the SHARED FILESYSTEM's clock: "now" is
/// the mtime of a probe file the caller wrote just before asking, so both
/// ends of the subtraction come from the same (file-server) clock and
/// per-machine wall-clock skew cancels out — a worker whose clock drifts
/// can neither hold every lease hostage nor reclaim live ones. POSIX stat
/// for the mtimes: std::filesystem::file_time_type is not portably
/// comparable before C++20's clock_cast is universal.
bool fileAgeSeconds(const std::string& path, const std::string& probePath,
                    double& ageSeconds) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) return false;
  struct stat probeSt = {};
  if (::stat(probePath.c_str(), &probeSt) != 0) return false;
  ageSeconds = std::difftime(probeSt.st_mtime, st.st_mtime);
  return true;
}

/// One file-transport lease lifecycle event. The same family (with
/// transport="http") is fed by serve/sweep_coordinator.cpp, so a mixed
/// deployment's lease churn reads off one metric.
void leaseEvent(const char* event) {
  if (!telemetryEnabled()) return;
  telemetry()
      .counter("ides_sweep_lease_events_total",
               "Sweep lease lifecycle events (claim, renew, reclaim, lost) "
               "by transport",
               {{"event", event}, {"transport", "file"}})
      .add();
}

}  // namespace

bool validSweepKey(std::string_view key) {
  if (key.empty() || key.size() > 128) return false;
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

SweepManifest makeManifest(const std::string& sweepName,
                           const SweepScale& scale,
                           const InstanceSuite& suite) {
  SweepManifest manifest;
  manifest.sweep = sweepName;
  manifest.suiteName = suite.name();
  manifest.scale = scale;
  manifest.items.reserve(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const BatchInstance& instance = suite.instances()[i];
    manifest.items.push_back(
        {i, instance.id, instanceFingerprint(suite.name(), instance)});
  }
  return manifest;
}

std::string manifestJson(const SweepManifest& manifest) {
  std::string out = "{\n";
  out += "  \"schema\": 1,\n";
  out += "  \"sweep\": " + jsonQuote(manifest.sweep) + ",\n";
  out += "  \"suite\": " + jsonQuote(manifest.suiteName) + ",\n";
  out += "  \"scale\": {\n";
  out += "    \"name\": " + jsonQuote(manifest.scale.name) + ",\n";
  out += "    \"seeds\": " + std::to_string(manifest.scale.seeds) + ",\n";
  out += "    \"sa_iterations\": " +
         std::to_string(manifest.scale.saIterations) + ",\n";
  out += "    \"sizes\": [";
  for (std::size_t i = 0; i < manifest.scale.sizes.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(manifest.scale.sizes[i]);
  }
  out += "],\n";
  out += "    \"future_apps\": " +
         std::to_string(manifest.scale.futureAppsPerInstance) + "\n  },\n";
  out += "  \"instances\": [";
  for (std::size_t i = 0; i < manifest.items.size(); ++i) {
    const WorkItem& item = manifest.items[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"index\": " + std::to_string(item.index) +
           ", \"id\": " + jsonQuote(item.id) +
           ", \"fingerprint\": " + jsonQuote(item.fingerprint) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void writeManifest(const std::string& dir, const SweepManifest& manifest) {
  const std::string out = manifestJson(manifest);
  const std::string finalPath = manifestPath(dir);
  // Host+pid-unique tmp name: a second coordinator racing the publish must
  // not interleave writes into the same tmp file (the later rename still
  // wins wholesale, which is fine — both manifests are complete).
  std::string tmpPath = finalPath;
  tmpPath += ".tmp.";
  tmpPath += buildProvenance().hostname;
#if defined(__unix__) || defined(__APPLE__)
  tmpPath += '.';
  tmpPath += std::to_string(static_cast<long>(getpid()));
#endif
  publishFileDurably(tmpPath, finalPath, out, "work queue");
}

SweepManifest parseManifestJson(const std::string& text) {
  JsonValue root;
  try {
    root = parseJson(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("work queue: bad manifest: ") +
                             e.what());
  }
  if (root.intAt("schema") != 1) {
    throw std::runtime_error("work queue: unsupported manifest schema");
  }
  SweepManifest manifest;
  manifest.sweep = root.stringAt("sweep");
  manifest.suiteName = root.stringAt("suite");
  const JsonValue& scale = root.at("scale");
  manifest.scale.name = scale.stringAt("name");
  manifest.scale.seeds = static_cast<int>(scale.intAt("seeds"));
  manifest.scale.saIterations =
      static_cast<int>(scale.intAt("sa_iterations"));
  manifest.scale.sizes.clear();
  for (const JsonValue& size : scale.at("sizes").items) {
    manifest.scale.sizes.push_back(
        static_cast<std::size_t>(size.numberValue));
  }
  manifest.scale.futureAppsPerInstance =
      static_cast<std::size_t>(scale.intAt("future_apps"));
  for (const JsonValue& entry : root.at("instances").items) {
    WorkItem item;
    item.index = static_cast<std::size_t>(entry.intAt("index"));
    item.id = entry.stringAt("id");
    item.fingerprint = entry.stringAt("fingerprint");
    manifest.items.push_back(std::move(item));
  }
  return manifest;
}

std::optional<SweepManifest> readManifest(const std::string& dir) {
  std::ifstream in(manifestPath(dir), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseManifestJson(buffer.str());
}

InstanceSuite suiteFromManifest(const SweepManifest& manifest) {
  InstanceSuite suite = namedSweep(manifest.sweep, manifest.scale);
  if (suite.size() != manifest.items.size()) {
    throw std::runtime_error(
        "work queue: local suite has " + std::to_string(suite.size()) +
        " instances, manifest lists " +
        std::to_string(manifest.items.size()) +
        " — code version skew, refusing to join");
  }
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string local =
        instanceFingerprint(suite.name(), suite.instances()[i]);
    if (local != manifest.items[i].fingerprint) {
      throw std::runtime_error(
          "work queue: fingerprint mismatch at instance " +
          std::to_string(i) + " (" + suite.instances()[i].id +
          ") — code version skew, refusing to join");
    }
  }
  return suite;
}

WorkQueue::WorkQueue(std::string dir, std::string workerId,
                     double leaseSeconds)
    : dir_(std::move(dir)),
      workerId_(std::move(workerId)),
      leaseSeconds_(leaseSeconds) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "claims", ec);
  if (ec) {
    throw std::runtime_error("work queue: cannot create claims dir: " +
                             ec.message());
  }
}

std::string WorkQueue::leasePath(const WorkItem& item) const {
  return (fs::path(dir_) / "claims" / (item.fingerprint + ".lease"))
      .string();
}

std::string WorkQueue::leaseContent() const {
  return "{\"worker\": " + jsonQuote(workerId_) +
         ", \"lease_seconds\": " + std::to_string(leaseSeconds_) + "}\n";
}

bool WorkQueue::tryClaimExclusive(const WorkItem& item) {
  // fopen "wx" = O_CREAT | O_EXCL: exactly one participant wins the create,
  // even over NFS-style shared directories with close-to-open consistency.
  std::FILE* file = std::fopen(leasePath(item).c_str(), "wx");
  if (file == nullptr) return false;
  std::fputs(leaseContent().c_str(), file);
  std::fclose(file);
  leaseEvent("claim");
  return true;
}

bool WorkQueue::renew(const WorkItem& item) {
  const std::string path = leasePath(item);
  const auto ownedByUs = [&] {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      return parseJson(buffer.str()).stringAt("worker") == workerId_;
    } catch (const std::exception&) {
      // Mid-write or corrupt: do not touch what we may not own.
      return false;
    }
  };
  if (!ownedByUs()) {
    leaseEvent("lost");
    return false;
  }
  // "r+" (never create): a reclaimed lease must stay gone — recreating the
  // file here would resurrect a claim a peer has already moved aside.
  std::FILE* file = std::fopen(path.c_str(), "r+");
  if (file == nullptr) {
    leaseEvent("lost");
    return false;
  }
  const std::string content = leaseContent();
  std::fputs(content.c_str(), file);
  std::fflush(file);
#if defined(__unix__) || defined(__APPLE__)
  (void)::ftruncate(fileno(file), static_cast<off_t>(content.size()));
#endif
  std::fclose(file);
  // Re-check after the rewrite: if a reclaim slipped between the ownership
  // check and the write, report the loss now so the caller stops. (The
  // narrower write-vs-reclaim tie that survives this check is benign — both
  // runs produce the identical record and the store keeps exactly one.)
  if (!ownedByUs()) {
    leaseEvent("lost");
    return false;
  }
  leaseEvent("renew");
  return true;
}

bool WorkQueue::reclaimIfStale(const WorkItem& item, bool& probeFresh) {
  const std::string path = leasePath(item);
  double declared = leaseSeconds_;
  {
    // The WRITER's declared duration governs expiry; fall back to ours
    // when the lease is unreadable (it may be mid-write or corrupt).
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      try {
        declared = parseJson(buffer.str()).numberAt("lease_seconds");
      } catch (const std::exception&) {
      }
    }
  }
  // One probe write per claim() scan, not per contested lease: the waiting
  // loops poll claim() continuously, and a per-lease rewrite would be
  // sustained metadata churn on a shared (NFS-style) directory.
  const std::string probe =
      (fs::path(dir_) / "claims" / (".clock." + workerId_)).string();
  if (!probeFresh) {
    std::ofstream out(probe, std::ios::trunc);
    if (!out) return false;
    out << '\n';
    out.flush();
    if (!out) return false;
    probeFresh = true;
  }
  double age = 0.0;
  if (!fileAgeSeconds(path, probe, age) || age <= declared) return false;
  // Atomically move the stale lease aside: exactly one reclaimer's rename
  // succeeds. The winner does NOT own the claim yet — it just cleared the
  // way; ownership is still decided by the exclusive create that follows.
  const std::string aside =
      path + ".stale." + workerId_ + "." + std::to_string(reclaimSeq_++);
  std::error_code ec;
  fs::rename(path, aside, ec);
  if (ec) return false;
  fs::remove(aside, ec);
  leaseEvent("reclaim");
  return true;
}

std::optional<WorkItem> WorkQueue::claim(const SweepStore& store,
                                         const SweepManifest& manifest) {
  bool probeFresh = false;  // refreshed at most once per scan
  for (const WorkItem& item : manifest.items) {
    if (store.contains(item.fingerprint)) continue;
    const auto claimedDoneItem = [&] {
      // A record may have landed between the contains() check and the
      // claim — including the whole instance completing behind a lease
      // that then went stale. Running it again would only produce a
      // duplicate for store() to discard; skip instead.
      if (!store.contains(item.fingerprint)) return false;
      release(item);
      return true;
    };
    if (tryClaimExclusive(item)) {
      if (claimedDoneItem()) continue;
      return item;
    }
    if (reclaimIfStale(item, probeFresh) && tryClaimExclusive(item)) {
      if (claimedDoneItem()) continue;
      return item;
    }
  }
  return std::nullopt;
}

void WorkQueue::release(const WorkItem& item) {
  std::error_code ec;
  fs::remove(leasePath(item), ec);
}

void WorkQueue::complete(const WorkItem& item) { release(item); }

bool WorkQueue::allDone(const SweepStore& store,
                        const SweepManifest& manifest) const {
  for (const WorkItem& item : manifest.items) {
    if (!store.contains(item.fingerprint)) return false;
  }
  return true;
}

void WorkQueue::requestStop() {
  std::ofstream out(stopPath(dir_));
  out << workerId_ << "\n";
}

bool WorkQueue::stopRequested() const {
  std::error_code ec;
  return fs::exists(stopPath(dir_), ec);
}

void WorkQueue::clearStop() {
  std::error_code ec;
  fs::remove(stopPath(dir_), ec);
}

LeaseGuard::LeaseGuard(SweepParticipant& participant, WorkItem item)
    : participant_(participant), item_(std::move(item)) {
  // Renew at a third of the lease so two consecutive missed heartbeats
  // still leave the lease fresh; the floor keeps a deliberately tiny test
  // lease from spinning the thread.
  const double period = std::max(participant_.leaseSeconds() / 3.0, 0.05);
  renewal_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopRenewal_) {
      const bool stopping =
          cv_.wait_for(lock, std::chrono::duration<double>(period),
                       [this] { return stopRenewal_; });
      if (stopping) break;
      lock.unlock();
      faultPoint("mid-renewal");
      const bool renewed = participant_.renew(item_);
      lock.lock();
      if (!renewed) {
        lost_.store(true);
        break;  // we no longer own the claim; stop heartbeating
      }
    }
  });
}

LeaseGuard::~LeaseGuard() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopRenewal_ = true;
  }
  cv_.notify_all();
  if (renewal_.joinable()) renewal_.join();
  // A lost claim belongs to its reclaimer now — releasing would delete the
  // PEER's live lease.
  if (!completed_.load() && !lost_.load()) participant_.release(item_);
}

QueueRunStats runSweepParticipant(
    const InstanceSuite& suite, SweepParticipant& participant,
    const StopToken* stop,
    const std::function<void(const WorkItem&, const InstanceOutcome&)>&
        onDone) {
  QueueRunStats stats;
  while (true) {
    if ((stop != nullptr && stop->stopRequested()) ||
        participant.stopRequested()) {
      stats.stopped = true;
      return stats;
    }
    std::optional<WorkItem> item = participant.claimNext();
    if (!item.has_value()) {
      if (participant.failed()) {
        stats.failed = true;
        stats.error = participant.failureReason();
      }
      return stats;
    }
    const BatchInstance& instance = suite.instances()[item->index];
    // Everything from here to markCompleted() is covered by the guard: a
    // throw from the instance run or the store releases the lease instead
    // of leaving it to dangle until the stale timeout.
    LeaseGuard guard(participant, *item);
    faultPoint("post-claim");
    InstanceOutcome outcome = runBatchInstance(instance, stop);
    if (!SweepStore::outcomeIsComplete(outcome)) {
      // Cut short mid-instance: the partial result must not enter the
      // store. The guard releases the claim so a peer (or a resume)
      // redoes it.
      stats.stopped = true;
      return stats;
    }
    if (guard.renewalLost()) continue;  // the reclaimer publishes it
    faultPoint("pre-complete");
    participant.storeRecord(*item, outcome);
    guard.markCompleted();
    ++stats.executed;
    if (onDone) onDone(*item, outcome);
  }
}

QueueRunStats runQueuedInstances(
    const InstanceSuite& suite, const SweepManifest& manifest,
    SweepStore& store, WorkQueue& queue, const StopToken* stop,
    const std::function<void(const WorkItem&, const InstanceOutcome&)>&
        onDone) {
  FileSweepParticipant participant(suite, manifest, store, queue);
  return runSweepParticipant(suite, participant, stop, onDone);
}

BatchReport reportFromStore(const InstanceSuite& suite, SweepStore& store) {
  BatchReport report;
  report.suiteName = suite.name();
  report.results.resize(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const BatchInstance& instance = suite.instances()[i];
    InstanceResult& slot = report.results[i];
    slot.index = i;
    slot.id = instance.id;
    slot.group = instance.group;
    slot.axis = instance.axis;
    slot.seedIndex = instance.seedIndex;
    slot.suiteSeed = instance.suiteSeed;
    std::optional<InstanceOutcome> outcome =
        store.load(instanceFingerprint(suite.name(), instance));
    if (outcome.has_value()) {
      slot.outcome = std::move(*outcome);
      slot.ran = true;
      slot.cached = true;
      ++report.completed;
      ++report.cacheHits;
    }
  }
  report.stopped = report.completed != suite.size();
  return report;
}

}  // namespace ides
