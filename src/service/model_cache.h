#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "circuit/parametric_system.h"
#include "mor/lowrank_pmor.h"
#include "mor/reduced_model.h"
#include "obs/metrics.h"
#include "service/disk_store.h"
#include "util/deadline.h"
#include "util/single_flight.h"
#include "util/thread_annotations.h"

namespace varmor::service {

/// Content-addressed identity of a reduced model: a stable 64-bit hash of
/// everything that determines the reduction's RESULT — the parametric system
/// (sparsity patterns and IEEE bit patterns of every matrix entry, i.e. the
/// netlist after MNA assembly plus its parameter configuration) and the
/// value-affecting reduction options. Pointer-valued options (g0_factor,
/// g0_symbolic) are deliberately excluded: they change where the work
/// happens, not what model comes out.
struct CacheKey {
    std::uint64_t value = 0;

    /// 16-char lowercase hex form — the disk tier's file stem.
    std::string hex() const;

    bool operator==(const CacheKey& o) const { return value == o.value; }
    bool operator!=(const CacheKey& o) const { return value != o.value; }
};

/// The key of (system, reduction options).
CacheKey cache_key(const circuit::ParametricSystem& sys,
                   const mor::LowRankPmorOptions& opts);

struct ModelCacheOptions {
    /// Capacity of the in-memory LRU tier (number of models). Least
    /// recently used entries are dropped from memory past this; with a disk
    /// tier configured they remain reloadable bit-identically.
    int memory_capacity = 8;
    /// Directory of the disk tier (created on demand). Empty = memory-only.
    /// Models are persisted write-through on build as `<key-hex>.rom` via a
    /// DiskStore (GC, cross-process locking — see disk_store.h), so a later
    /// process (or a post-eviction request) reloads instead of re-reducing.
    std::string disk_dir;
    /// GC bound on the disk tier (Σ .rom bytes); 0 = unbounded.
    std::uint64_t disk_capacity_bytes = 0;
    /// Age past which an orphaned .tmp.* file from a crashed writer is swept.
    double tmp_ttl_seconds = 60.0;
    /// Retry policy for transient disk failures (corruption is never
    /// retried — it is a miss and a rebuild).
    RetryPolicy retry;
    /// Consecutive build failures after which the key is POISONED: further
    /// requests rethrow the stored failure immediately (negative cache)
    /// instead of re-running a builder that keeps failing.
    int poison_after = 2;
    /// How long a poisoned key stays poisoned. After expiry the next request
    /// tries a real build again — transient infrastructure failures heal.
    double poison_ttl_ms = 250.0;
};

/// The `model_cache.*` counters of one cache, read from its registry: the
/// typed read for callers that check single counts (tests, the perfbench
/// reduce workload). ModelCache::telemetry() exports the same counters.
struct ModelCacheStats {
    long long memory_hits = 0;
    long long disk_hits = 0;    ///< loaded + hash-verified from the disk tier
    long long builds = 0;       ///< builder invocations — the "zero reduction
                                ///< work on a warm hit" assertion counts THIS
    long long evictions = 0;    ///< memory-tier drops (disk copies persist)
    long long poisonings = 0;   ///< keys marked poisoned by repeated build failure
    long long poison_hits = 0;  ///< requests answered by the negative cache
};

/// Content-addressed registry of reduced models — the serving layer's answer
/// to "a parametric ROM is built once and then evaluated cheaply forever".
///
/// Lookup order: in-memory LRU tier → disk tier (content-hash-verified
/// reload; a corrupted file is rebuilt, never served) → the caller's builder
/// (counted; write-through persisted). Concurrent requests for one key
/// coalesce onto a single build at two scopes: in-process via
/// util::SingleFlight, cross-process via the disk store's per-key file lock
/// (the loser re-probes disk after the winner's persist and reloads).
///
/// Failure containment:
///  - A persist failure never fails the build — the model is served from
///    memory and the store failure is counted (disk_store.store_failures).
///  - A builder failure propagates to every coalesced waiter; after
///    `poison_after` consecutive failures the key is negative-cached for
///    `poison_ttl_ms` and requests fail fast instead of re-running the
///    builder (callers degrade — see StudySession).
///  - A waiter with a Deadline gives up with DeadlineExceeded without
///    disturbing the winner's build.
///
/// Entries are handed out as shared_ptr<const ReducedModel>, so a model
/// stays valid for clients holding it across an eviction.
///
/// Thread-safety: all public methods are safe to call concurrently. One
/// mutex guards the in-memory tier (LRU order, index, negative cache); it is
/// taken once per session open or reduction, never per served query, and
/// only around tier updates. Builders and every disk IO run OUTSIDE it, so
/// other keys proceed during a build. Counters live in the cache's own
/// obs::Registry.
class ModelCache {
public:
    using ModelPtr = std::shared_ptr<const mor::ReducedModel>;
    using Builder = std::function<mor::ReducedModel()>;

    explicit ModelCache(const ModelCacheOptions& opts = {});

    ModelCache(const ModelCache&) = delete;
    ModelCache& operator=(const ModelCache&) = delete;

    const ModelCacheOptions& options() const { return opts_; }

    /// The model for `key`, from memory, disk, or — as a last resort —
    /// `build` (whose exception propagates to every coalesced waiter). A set
    /// `deadline` bounds how long this call waits on someone ELSE's in-flight
    /// build (DeadlineExceeded); the build itself always runs to completion.
    ModelPtr get_or_build(const CacheKey& key, const Builder& build,
                          const util::Deadline& deadline = {}) EXCLUDES(mutex_);

    /// True while `key` is negative-cached after repeated build failures.
    bool poisoned(const CacheKey& key) const EXCLUDES(mutex_);

    /// Drops the whole memory tier (the disk tier keeps every built model).
    /// Test/ops hook for exercising eviction + reload paths.
    void evict_memory() EXCLUDES(mutex_);

    /// Path a model with this key is (or would be) persisted under; empty
    /// when no disk tier is configured.
    std::string disk_path(const CacheKey& key) const;

    /// The shared disk tier; nullptr when memory-only.
    DiskStore* disk_store() { return disk_.get(); }
    const DiskStore* disk_store() const { return disk_.get(); }

    int memory_size() const EXCLUDES(mutex_);
    ModelCacheStats stats() const;

    /// This cache's `model_cache.*` counters, the `model_cache.memory_size`
    /// gauge, and the disk tier's `disk_store.*` counters when there is one.
    obs::Snapshot telemetry() const EXCLUDES(mutex_);

private:
    struct Entry {
        CacheKey key;
        ModelPtr model;
    };

    /// Negative-cache record of a key whose builder keeps failing.
    struct Poison {
        std::exception_ptr error;
        util::Deadline::clock::time_point expiry;
    };

    /// Memory-tier probe + LRU bump.
    ModelPtr memory_lookup_locked(const CacheKey& key) REQUIRES(mutex_);

    /// Insert at the LRU front, evicting past memory_capacity.
    void insert_locked(const CacheKey& key, ModelPtr model) REQUIRES(mutex_);

    /// The single-flight winner's miss path: disk probe → cross-process
    /// lock → re-probe → build → insert + persist. The build-outside-the-
    /// lock contract: the builder and every disk IO run with mutex_
    /// released; it is taken only around tier updates.
    ModelPtr build_miss(const CacheKey& key, const Builder& build) EXCLUDES(mutex_);

    /// Records a builder failure; poisons the key past the threshold.
    void record_build_failure(const CacheKey& key, std::exception_ptr error)
        EXCLUDES(mutex_);

    ModelCacheOptions opts_;
    /// The `model_cache.*` counters. Warm hits bump `memory_hits_`, resolved
    /// once so they never take the registry lock; the cold paths (misses,
    /// evictions, failed builds) look their counter up by name.
    mutable obs::Registry registry_;
    obs::Counter& memory_hits_;
    std::unique_ptr<DiskStore> disk_;  ///< null when memory-only
    util::SingleFlight<std::uint64_t, ModelPtr> flight_;

    mutable util::Mutex mutex_;
    std::list<Entry> lru_ GUARDED_BY(mutex_);  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
        GUARDED_BY(mutex_);
    std::unordered_map<std::uint64_t, Poison> poisoned_ GUARDED_BY(mutex_);
    std::unordered_map<std::uint64_t, int> consecutive_failures_
        GUARDED_BY(mutex_);
};

}  // namespace varmor::service
