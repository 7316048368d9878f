#include "service/model_cache.h"

#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/hash.h"

namespace varmor::service {

std::string CacheKey::hex() const { return util::hex64(value); }

namespace {

void hash_sparse(util::Fnv1a64& h, const sparse::Csc& m) {
    h.i32(m.rows()).i32(m.cols());
    h.i32_span(m.col_ptr()).i32_span(m.row_idx());
    h.f64_span(m.values());
}

}  // namespace

CacheKey cache_key(const circuit::ParametricSystem& sys,
                   const mor::LowRankPmorOptions& opts) {
    util::Fnv1a64 h;
    h.str("varmor-cache-key-v2");

    // The system: dimensions, every sparsity pattern, every value bit.
    h.i32(sys.size()).i32(sys.num_ports()).i32(sys.num_params());
    hash_sparse(h, sys.g0);
    hash_sparse(h, sys.c0);
    for (int i = 0; i < sys.num_params(); ++i) {
        hash_sparse(h, sys.dg[static_cast<std::size_t>(i)]);
        hash_sparse(h, sys.dc[static_cast<std::size_t>(i)]);
    }
    h.f64_span(sys.b.raw()).f64_span(sys.l.raw());

    // The reduction config: every option that shapes the resulting model.
    h.i32(opts.s_order).i32(opts.param_order).i32(opts.rank);
    h.i32(opts.include_adjoint ? 1 : 0);
    h.i32(static_cast<int>(opts.space)).i32(static_cast<int>(opts.engine));
    h.f64(opts.orth.drop_tol);

    return CacheKey{h.digest()};
}

ModelCache::ModelCache(const ModelCacheOptions& opts)
    : opts_(opts), memory_hits_(registry_.counter("model_cache.memory_hits")) {
    check(opts_.memory_capacity >= 1, "ModelCache: memory_capacity must be >= 1");
    check(opts_.poison_after >= 1, "ModelCache: poison_after must be >= 1");
    if (!opts_.disk_dir.empty()) {
        DiskStoreOptions d;
        d.dir = opts_.disk_dir;
        d.capacity_bytes = opts_.disk_capacity_bytes;
        d.tmp_ttl_seconds = opts_.tmp_ttl_seconds;
        d.retry = opts_.retry;
        disk_ = std::make_unique<DiskStore>(d);
    }
}

std::string ModelCache::disk_path(const CacheKey& key) const {
    if (!disk_) return {};
    return disk_->path(key.hex());
}

ModelCache::ModelPtr ModelCache::memory_lookup_locked(const CacheKey& key) {
    auto it = index_.find(key.value);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
    memory_hits_.add();
    return it->second->model;
}

void ModelCache::insert_locked(const CacheKey& key, ModelPtr model) {
    auto it = index_.find(key.value);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        it->second->model = std::move(model);
        return;
    }
    lru_.push_front(Entry{key, std::move(model)});
    index_[key.value] = lru_.begin();
    while (static_cast<int>(lru_.size()) > opts_.memory_capacity) {
        index_.erase(lru_.back().key.value);
        lru_.pop_back();
        registry_.counter("model_cache.evictions").add();
    }
}

bool ModelCache::poisoned(const CacheKey& key) const {
    util::MutexLock lock(mutex_);
    auto it = poisoned_.find(key.value);
    return it != poisoned_.end() && util::Deadline::clock::now() < it->second.expiry;
}

void ModelCache::record_build_failure(const CacheKey& key, std::exception_ptr error) {
    util::MutexLock lock(mutex_);
    const int failures = ++consecutive_failures_[key.value];
    if (failures >= opts_.poison_after) {
        poisoned_[key.value] =
            Poison{std::move(error),
                   util::Deadline::clock::now() +
                       std::chrono::duration_cast<util::Deadline::clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               opts_.poison_ttl_ms))};
        registry_.counter("model_cache.poisonings").add();
    }
}

ModelCache::ModelPtr ModelCache::build_miss(const CacheKey& key, const Builder& build) {
    const std::string hex = key.hex();

    // A persisted artifact becomes a memory entry and counts as a disk hit.
    const auto probe_disk = [&]() -> ModelPtr {
        ModelPtr m = disk_->load(hex);
        if (m) {
            registry_.counter("model_cache.disk_hits").add();
            util::MutexLock lock(mutex_);
            consecutive_failures_.erase(key.value);
            insert_locked(key, m);
        }
        return m;
    };

    // Disk probe first: another thread/process may have persisted the model
    // since our memory miss.
    if (disk_) {
        if (ModelPtr m = probe_disk()) return m;
    }

    // Cross-process single-flight: hold the key's file lock for the build.
    // If another PROCESS was mid-build we block here until it finishes, then
    // the re-probe turns its persisted artifact into a disk hit — one build
    // per key across the whole fleet, not per process.
    util::FileLock build_lock;
    if (disk_) {
        build_lock = disk_->lock_key(hex);
        if (ModelPtr m = probe_disk()) return m;
    }

    ModelPtr model;
    try {
        VARMOR_FAULT_POINT_DETAIL("model_cache.build", hex);
        model = std::make_shared<const mor::ReducedModel>(build());
    } catch (...) {
        record_build_failure(key, std::current_exception());
        throw;
    }

    registry_.counter("model_cache.builds").add();
    {
        util::MutexLock lock(mutex_);
        consecutive_failures_.erase(key.value);
        poisoned_.erase(key.value);
        insert_locked(key, model);
    }
    // Write-through persist — retried inside the store; an ultimate failure
    // is counted there, NOT thrown: the disk tier is an optimization and a
    // full disk must never fail a build that already succeeded.
    if (disk_) disk_->store(hex, *model);
    return model;
}

ModelCache::ModelPtr ModelCache::get_or_build(const CacheKey& key, const Builder& build,
                                              const util::Deadline& deadline) {
    {
        util::MutexLock lock(mutex_);
        if (ModelPtr m = memory_lookup_locked(key)) return m;
        // Negative cache: a key whose builder keeps failing fails FAST (the
        // stored failure, rethrown) instead of re-running the builder on
        // every request. Expiry lets transient infrastructure failures heal.
        auto it = poisoned_.find(key.value);
        if (it != poisoned_.end()) {
            if (util::Deadline::clock::now() < it->second.expiry) {
                registry_.counter("model_cache.poison_hits").add();
                std::rethrow_exception(it->second.error);
            }
            poisoned_.erase(it);  // expired — try a real build again
        }
    }
    if (deadline.expired())
        throw util::DeadlineExceeded(
            "ModelCache: deadline expired before build for key " + key.hex());
    return flight_.run(
        key.value, [&] { return build_miss(key, build); }, deadline);
}

void ModelCache::evict_memory() {
    util::MutexLock lock(mutex_);
    registry_.counter("model_cache.evictions").add(static_cast<long long>(lru_.size()));
    lru_.clear();
    index_.clear();
}

int ModelCache::memory_size() const {
    util::MutexLock lock(mutex_);
    return static_cast<int>(lru_.size());
}

ModelCacheStats ModelCache::stats() const {
    const obs::Snapshot s = registry_.snapshot();
    return {s.counter("model_cache.memory_hits"), s.counter("model_cache.disk_hits"),
            s.counter("model_cache.builds"), s.counter("model_cache.evictions"),
            s.counter("model_cache.poisonings"), s.counter("model_cache.poison_hits")};
}

obs::Snapshot ModelCache::telemetry() const {
    obs::Snapshot s = registry_.snapshot();
    s.add_gauge("model_cache.memory_size", memory_size());
    if (disk_) s.merge(disk_->telemetry());
    return s;
}

}  // namespace varmor::service
