// Cross-process sweep execution over a shared directory.
//
// One coordinator (`ides_cli sweep --serve <dir>`) publishes a manifest of
// the sweep's canonical instances; any number of independent worker
// processes (`ides_cli sweep --worker <dir>`), on this machine or on others
// sharing the directory, claim instances through file-based leases, run
// them, and write records into the SweepStore. The coordinator (itself a
// participant) merges the records in canonical order once all are present —
// byte-identical (timing off) to the single-process runBatch path for ANY
// worker count, because the records hold the exact deterministic fields and
// the merge order is the suite's, not the arrival order.
//
// Directory protocol (everything lives under the store dir):
//   manifest.json               sweep identity + canonical work list
//   claims/<fingerprint>.lease  exclusive claim (created with O_EXCL
//                               semantics; content: worker id + lease
//                               duration)
//   records/<fingerprint>.json  completion marker AND the result itself
//   stop                        cooperative cancellation sentinel
//
// Lease expiry: a lease older than its declared duration whose record
// never appeared marks a dead worker. Any participant may reclaim it —
// rename the stale lease aside (atomic, exactly one winner), then race for
// a fresh exclusive claim. Because completion is the record file and
// records are content-addressed and first-writer-wins, even a worker that
// was merely slow (not dead) cannot corrupt anything: both runs produce
// the same record, one write is discarded.
//
// Clocks: staleness compares the lease file's mtime against the mtime of
// a probe file written at check time, so the shared filesystem's
// timestamps arbitrate on both sides of the subtraction and per-machine
// wall-clock skew cancels out. Size leases comfortably above the slowest
// instance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/batch_runner.h"
#include "core/batch_suites.h"
#include "store/sweep_store.h"
#include "util/stop_token.h"

namespace ides {

/// One manifest entry: an instance's canonical position and record key.
struct WorkItem {
  std::size_t index = 0;
  std::string id;
  std::string fingerprint;
};

/// The coordinator's published description of the sweep: enough for a
/// worker on another machine to rebuild the identical InstanceSuite and
/// verify it (fingerprints catch code/version skew before any work runs).
struct SweepManifest {
  std::string sweep;      ///< namedSweep key, e.g. "quality"
  std::string suiteName;  ///< InstanceSuite::name(), e.g. "fig-quality"
  SweepScale scale;       ///< full scale parameters, not just the name
  std::vector<WorkItem> items;
};

/// True for sweep keys safe to embed in paths and URLs (the HTTP
/// transport's sweep identifier): non-empty [A-Za-z0-9._-], at most 128.
bool validSweepKey(std::string_view key);

/// Longest claim lease, in seconds (about 11.6 days), that
/// SweepCoordinator::claim and `ides_cli sweep --lease-seconds` accept: a
/// lease lies in (0, kMaxLeaseSeconds]. Far longer ones overflow the
/// steady_clock expiry they are added to.
inline constexpr double kMaxLeaseSeconds = 1e6;

/// Builds the manifest for a named sweep's suite (fingerprints computed
/// against the suite's canonical instance list).
SweepManifest makeManifest(const std::string& sweepName,
                           const SweepScale& scale,
                           const InstanceSuite& suite);

/// The manifest's canonical JSON document. Shared by the file transport
/// (writeManifest) and the HTTP coordinator (GET /sweeps/<key>/manifest),
/// so a worker parses one format regardless of how the manifest arrived.
std::string manifestJson(const SweepManifest& manifest);

/// Parses a manifest document (inverse of manifestJson). Throws
/// std::runtime_error on malformed or wrong-schema input.
SweepManifest parseManifestJson(const std::string& text);

/// Atomically (tmp+rename) publishes the manifest into `dir`.
void writeManifest(const std::string& dir, const SweepManifest& manifest);

/// Loads the manifest; nullopt when none is published yet. Throws
/// std::runtime_error on a malformed manifest.
std::optional<SweepManifest> readManifest(const std::string& dir);

/// Rebuilds the manifest's InstanceSuite via namedSweep and verifies every
/// fingerprint against the manifest. Throws std::runtime_error on any
/// mismatch — running skewed code against a shared store would poison it.
InstanceSuite suiteFromManifest(const SweepManifest& manifest);

/// File-based claim/lease queue of one participant process.
class WorkQueue {
 public:
  /// `workerId` names this participant in lease files (diagnostics only;
  /// exclusivity comes from the filesystem). `leaseSeconds` is how long
  /// this participant's own claims stay valid before peers may reclaim.
  WorkQueue(std::string dir, std::string workerId,
            double leaseSeconds = 600.0);

  [[nodiscard]] const std::string& workerId() const { return workerId_; }
  [[nodiscard]] double leaseSeconds() const { return leaseSeconds_; }

  /// Claims the first instance (canonical order) that has no record and no
  /// live lease, reclaiming expired leases on the way. nullopt = nothing
  /// claimable right now (all done, or peers hold live leases).
  std::optional<WorkItem> claim(const SweepStore& store,
                                const SweepManifest& manifest);

  /// Refreshes our lease's timestamp so a slow instance is never reclaimed
  /// while its owner is alive. Returns false — losing cleanly — when the
  /// lease is gone or held by another worker (a peer reclaimed it): the
  /// caller no longer owns the instance and must not release or complete
  /// it. Never recreates a missing lease file. The refresh is a rewrite of
  /// the lease content, so the shared filesystem stamps the new mtime with
  /// the same clock the staleness probe reads.
  ///
  /// The read-check-write window can race a reclaim: in the worst case two
  /// workers briefly both believe they own the instance. That tie is
  /// benign by construction — both produce the identical record and the
  /// content-addressed store keeps exactly one.
  bool renew(const WorkItem& item);

  /// Drops our lease without a record (the run was cut short) so another
  /// participant can redo the instance.
  void release(const WorkItem& item);

  /// Drops our lease after the record became visible.
  void complete(const WorkItem& item);

  /// True when every manifest item has a record.
  [[nodiscard]] bool allDone(const SweepStore& store,
                             const SweepManifest& manifest) const;

  /// Cooperative cross-process cancellation via the `stop` sentinel file.
  void requestStop();
  [[nodiscard]] bool stopRequested() const;
  /// Removes a stale sentinel (coordinator, before publishing a manifest).
  void clearStop();

 private:
  [[nodiscard]] std::string leasePath(const WorkItem& item) const;
  [[nodiscard]] std::string leaseContent() const;
  bool tryClaimExclusive(const WorkItem& item);
  /// `probeFresh` tracks whether this claim() scan already refreshed the
  /// filesystem-clock probe file (one write per scan, not per lease).
  bool reclaimIfStale(const WorkItem& item, bool& probeFresh);

  std::string dir_;
  std::string workerId_;
  double leaseSeconds_;
  std::uint64_t reclaimSeq_ = 0;
};

/// Transport-neutral view of one sweep participant: the work loop below is
/// the same whether claims travel through a shared directory (WorkQueue)
/// or an HTTP coordinator (RemoteWorkQueue in store/remote_queue.h).
class SweepParticipant {
 public:
  virtual ~SweepParticipant() = default;

  /// Next claimable instance; nullopt when nothing is claimable right now
  /// (all recorded, peers hold live leases, or the transport is lost —
  /// check failed()/failureReason() to tell the last case apart).
  virtual std::optional<WorkItem> claimNext() = 0;

  /// Heartbeat for a held claim. false = we no longer own it (a peer
  /// reclaimed after staleness); the caller must stop treating the
  /// instance as ours and must not release or complete it.
  virtual bool renew(const WorkItem& item) = 0;

  /// Gives a held claim back without a record (run cut short).
  virtual void release(const WorkItem& item) = 0;

  /// Publishes the finished outcome as the instance's record and drops the
  /// claim. Idempotent across duplicate runs (content-addressed store).
  virtual void storeRecord(const WorkItem& item,
                           const InstanceOutcome& outcome) = 0;

  /// True when every manifest instance has a record.
  virtual bool allDone() = 0;

  /// Cooperative cancellation observed through the transport.
  virtual bool stopRequested() = 0;

  /// This participant's declared lease duration (renewal period derives
  /// from it).
  [[nodiscard]] virtual double leaseSeconds() const = 0;

  /// True when the transport failed permanently (HTTP coordinator gone
  /// after retries). File-based participants never fail this way.
  [[nodiscard]] virtual bool failed() const { return false; }
  [[nodiscard]] virtual std::string failureReason() const { return {}; }
};

/// Adapter: WorkQueue + SweepStore + manifest as a SweepParticipant.
class FileSweepParticipant final : public SweepParticipant {
 public:
  FileSweepParticipant(const InstanceSuite& suite,
                       const SweepManifest& manifest, SweepStore& store,
                       WorkQueue& queue)
      : suite_(suite), manifest_(manifest), store_(store), queue_(queue) {}

  std::optional<WorkItem> claimNext() override {
    return queue_.claim(store_, manifest_);
  }
  bool renew(const WorkItem& item) override { return queue_.renew(item); }
  void release(const WorkItem& item) override { queue_.release(item); }
  void storeRecord(const WorkItem& item,
                   const InstanceOutcome& outcome) override {
    store_.store(item.fingerprint, suite_.name(),
                 suite_.instances()[item.index].id, outcome);
    queue_.complete(item);
  }
  bool allDone() override { return queue_.allDone(store_, manifest_); }
  bool stopRequested() override { return queue_.stopRequested(); }
  [[nodiscard]] double leaseSeconds() const override {
    return queue_.leaseSeconds();
  }

 private:
  const InstanceSuite& suite_;
  const SweepManifest& manifest_;
  SweepStore& store_;
  WorkQueue& queue_;
};

/// RAII holder of one claim: spawns a renewal heartbeat thread for the
/// claim's lifetime and guarantees the lease is returned on EVERY exit
/// path — normal completion (markCompleted), a stop, or an exception
/// unwinding through the owner. Without this, a throw from the instance
/// run leaves the claim dangling until peers wait out the stale timeout.
class LeaseGuard {
 public:
  LeaseGuard(SweepParticipant& participant, WorkItem item);
  ~LeaseGuard();
  LeaseGuard(const LeaseGuard&) = delete;
  LeaseGuard& operator=(const LeaseGuard&) = delete;

  /// The record was published; the destructor must not release.
  void markCompleted() { completed_.store(true); }

  /// True when a renewal heartbeat discovered we lost the claim (a peer
  /// reclaimed it). The owner must discard its result without storing —
  /// the reclaimer owns the instance now.
  [[nodiscard]] bool renewalLost() const { return lost_.load(); }

 private:
  SweepParticipant& participant_;
  WorkItem item_;
  std::atomic<bool> completed_{false};
  std::atomic<bool> lost_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopRenewal_ = false;
  std::thread renewal_;
};

struct QueueRunStats {
  std::size_t executed = 0;  ///< instances this participant ran to records
  bool stopped = false;      ///< a stop (token or sentinel) ended the loop
  bool failed = false;       ///< the transport was lost (HTTP coordinator
                             ///< unreachable after retries)
  std::string error;         ///< human-readable reason when failed
};

/// The participant work loop shared by every transport: claim, heartbeat
/// (LeaseGuard), run (core/batch_runner.h runBatchInstance — identical
/// records to the in-process path), publish, until nothing is claimable or
/// a stop lands. An outcome cut short by `stop` is discarded and its claim
/// released; an instance whose lease was lost mid-run is discarded too
/// (the reclaimer publishes it). IDES_FAULT points post-claim and
/// pre-complete fire here; mid-renewal fires inside the heartbeat.
QueueRunStats runSweepParticipant(
    const InstanceSuite& suite, SweepParticipant& participant,
    const StopToken* stop,
    const std::function<void(const WorkItem&, const InstanceOutcome&)>&
        onDone = {});

/// The file-transport work loop (--serve / --worker over a shared dir):
/// runSweepParticipant over a FileSweepParticipant.
QueueRunStats runQueuedInstances(
    const InstanceSuite& suite, const SweepManifest& manifest,
    SweepStore& store, WorkQueue& queue, const StopToken* stop,
    const std::function<void(const WorkItem&, const InstanceOutcome&)>&
        onDone = {});

/// Canonical-order merge: one InstanceResult per suite instance, loaded
/// from the store (missing records stay ran=false). The BENCH rendering of
/// a fully populated store is byte-identical (timing off) to a
/// single-process run — every completed field came from the same
/// deterministic computation, whoever ran it.
BatchReport reportFromStore(const InstanceSuite& suite, SweepStore& store);

}  // namespace ides
