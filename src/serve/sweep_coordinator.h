// HTTP-transported sweep coordination state for ides_serve.
//
// The file transport (store/work_queue.h) needs every participant on one
// shared directory and settles claim races through the filesystem. This
// coordinator is the network alternative: it owns the sweep store locally
// and arbitrates claims in memory, so workers need a TCP route to the
// daemon, not a mount. Being the single arbiter also removes the clock
// problem — lease expiry is measured on ONE steady clock (the daemon's),
// no probe files, no cross-machine skew.
//
// The result invariant is unchanged: records are rendered by the worker
// that ran the instance (keeping its provenance), validated and persisted
// verbatim by the coordinator into the same content-addressed SweepStore,
// first writer wins. A sweep's merged BENCH json (timing off) is
// byte-identical to a single-process run for any worker fleet, crash
// pattern, or transport mix — HTTP workers and shared-dir workers can even
// fill the same store.
//
// Thread-safety: every method takes one internal mutex. The store's
// filesystem protocol would be safe without it; the mutex protects the
// in-memory lease table and makes claim-check-store sequences atomic.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/sweep_store.h"
#include "store/work_queue.h"

namespace ides {

/// Outcome of one claim request.
struct CoordinatorClaim {
  enum class Kind {
    Claimed,  ///< `item` is yours; heartbeat it
    Wait,     ///< nothing claimable now (live leases outstanding)
    Done      ///< every instance has a record
  };
  Kind kind = Kind::Wait;
  WorkItem item;  ///< valid when kind == Claimed
};

struct CoordinatorSweepStatus {
  std::size_t total = 0;
  std::size_t recorded = 0;
  std::size_t leased = 0;  ///< live (unexpired) leases
  bool done = false;
};

class SweepCoordinator {
 public:
  /// Opens (creating if needed) the backing store at `storeDir`.
  explicit SweepCoordinator(std::string storeDir);

  /// Registers a sweep under `key`. Idempotent when the same sweep+scale
  /// is already registered; throws std::invalid_argument on a spec
  /// conflict, an invalid key, or an unknown sweep/scale name.
  void create(const std::string& key, const std::string& sweepName,
              const std::string& scaleName);

  [[nodiscard]] bool exists(const std::string& key) const;
  [[nodiscard]] std::vector<std::string> keys() const;

  /// The sweep's manifest document — the same bytes writeManifest would
  /// publish, so file and HTTP workers parse one format. Throws
  /// std::invalid_argument on an unknown key.
  [[nodiscard]] std::string manifestText(const std::string& key) const;

  /// Hands out the first instance with no record and no live lease.
  /// Expired leases are dropped here (the single-arbiter equivalent of
  /// stale-lease reclaim). Throws std::invalid_argument on an unknown key
  /// or a `leaseSeconds` outside (0, kMaxLeaseSeconds].
  CoordinatorClaim claim(const std::string& key, const std::string& worker,
                         double leaseSeconds);

  /// Heartbeat: extends `worker`'s lease on `fingerprint` by its original
  /// duration. false — losing cleanly — when the lease is gone, expired,
  /// or held by someone else.
  bool renew(const std::string& key, const std::string& worker,
             const std::string& fingerprint);

  /// Drops `worker`'s lease without a record. No-op when not the holder.
  void release(const std::string& key, const std::string& worker,
               const std::string& fingerprint);

  /// Validates and persists a worker-rendered record document; drops any
  /// lease on the instance. Returns false for an idempotent duplicate.
  /// Throws std::invalid_argument on unknown key/fingerprint and
  /// std::runtime_error on an invalid document.
  bool complete(const std::string& key, const std::string& worker,
                const std::string& fingerprint, const std::string& recordText);

  [[nodiscard]] CoordinatorSweepStatus status(const std::string& key) const;

  /// The merged BENCH json (timing off, byte-identical to a
  /// single-process run) once every record is present; nullopt until then.
  std::optional<std::string> resultJson(const std::string& key);

 private:
  struct Lease {
    std::string worker;
    double seconds = 0.0;
    std::chrono::steady_clock::time_point expiry;
  };
  struct Sweep {
    std::string sweepName;
    std::string scaleName;
    SweepManifest manifest;
    std::string manifestText;
    std::map<std::string, Lease> leases;  ///< fingerprint -> live lease
  };

  /// Locked lookup; throws std::invalid_argument on an unknown key.
  Sweep& sweepAt(const std::string& key);
  const Sweep& sweepAt(const std::string& key) const;
  /// Drops expired leases of one sweep (called with the mutex held).
  void expireLeasesLocked(Sweep& sweep) const;

  mutable std::mutex mutex_;
  SweepStore store_;
  std::map<std::string, Sweep> sweeps_;
};

}  // namespace ides
