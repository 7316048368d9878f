#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mor/reduced_model.h"
#include "obs/metrics.h"
#include "util/file_lock.h"

namespace varmor::service {

/// Retry policy for transient disk-tier failures (NFS hiccups, EBUSY,
/// momentary quota): each IO operation is attempted up to `attempts` times
/// with exponential backoff between tries. Corruption is NOT retried — a
/// corrupt artifact reads the same twice; it is treated as a miss and
/// rebuilt.
struct RetryPolicy {
    int attempts = 3;         ///< total tries per operation (>= 1)
    double backoff_ms = 0.5;  ///< sleep before the first retry
    double multiplier = 2.0;  ///< backoff growth per subsequent retry
};

struct DiskStoreOptions {
    std::string dir;                   ///< artifact directory (created on demand)
    std::uint64_t capacity_bytes = 0;  ///< GC bound on Σ .rom sizes; 0 = unbounded
    double tmp_ttl_seconds = 60.0;     ///< age past which an orphaned .tmp.* file
                                       ///< (a crashed writer's leftovers) is removed
    RetryPolicy retry;
};

/// Crash-safe shared artifact store — the ModelCache disk tier as a real
/// multi-process store rather than a directory of write-through files.
///
/// Layout inside `dir`:
///
///   <key>.rom       one model artifact, content-hash-verified on load
///   <key>.lock      per-key flock target: cross-process single-flight for
///                   builds of that key (writers hold it; crash releases it)
///   store.lock      store-wide flock target: serializes GC passes and
///                   stale-tmp sweeps across processes
///   *.tmp.*         in-flight writes (writer-unique names); orphans older
///                   than tmp_ttl_seconds are swept by construction and GC
///
/// Writes are atomic (temp + rename) and retried per RetryPolicy; a persist
/// that still fails is reported, not thrown — the disk tier is an
/// optimization and must never take down a build that already succeeded.
///
/// Thread-safety: all methods are safe to call concurrently; cross-process
/// safety comes from flock (see util::FileLock for crash semantics).
class DiskStore {
public:
    explicit DiskStore(const DiskStoreOptions& opts);

    DiskStore(const DiskStore&) = delete;
    DiskStore& operator=(const DiskStore&) = delete;

    const DiskStoreOptions& options() const { return opts_; }
    std::string path(const std::string& key_hex) const;

    /// Loads and content-hash-verifies the artifact for `key_hex`; nullptr
    /// on any miss (absent, corrupt, or unreadable after retries).
    std::shared_ptr<const mor::ReducedModel> load(const std::string& key_hex);

    /// Persists the artifact atomically (temp + rename, retried), then runs
    /// GC. Returns false when every attempt failed — callers keep serving
    /// the in-memory model.
    bool store(const std::string& key_hex, const mor::ReducedModel& model);

    /// Blocks until this process holds the cross-process build lock for the
    /// key. Callers re-probe load() after acquiring: the previous holder may
    /// have persisted the model already.
    util::FileLock lock_key(const std::string& key_hex);

    /// Removes .tmp.* orphans older than tmp_ttl_seconds and runs GC (also
    /// run by the constructor and after every store()).
    void sweep();

    /// This store's `disk_store.*` counters (one still at zero may be
    /// absent): `loads` (verified reloads served), `load_failures` (probes
    /// that ended as a miss: corrupt or persistently unreadable), `stores`
    /// (artifacts persisted), `store_failures` (persists abandoned after
    /// every retry; the model is still served from memory), `retries` (extra
    /// attempts of the retry policy), `gc_removed` (artifacts removed by the
    /// size-bound GC) and `tmp_removed` (stale .tmp.* files cleaned up).
    obs::Snapshot telemetry() const { return registry_.snapshot(); }

private:
    std::string lock_path(const std::string& key_hex) const;

    /// Stale-tmp sweep + size GC. Caller holds the store-wide FILE lock
    /// (cross-process; invisible to the static analysis).
    void maintain_locked(const std::string& just_written_hex);

    DiskStoreOptions opts_;
    obs::Registry registry_;  ///< this store's counters, see telemetry()
};

}  // namespace varmor::service
