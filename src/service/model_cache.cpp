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
    h.str("varmor-cache-key-v1");

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
    h.f64(opts.orth.drop_tol).i32(opts.orth.reorth_passes);

    return CacheKey{h.digest()};
}

ModelCache::ModelCache(const ModelCacheOptions& opts)
    : opts_(opts), memory_hits_(registry_.counter("model_cache.memory_hits")) {
    check(opts_.memory_capacity >= 1, "ModelCache: memory_capacity must be >= 1");
    check(opts_.memory_shards >= 1, "ModelCache: memory_shards must be >= 1");
    check(opts_.poison_after >= 1, "ModelCache: poison_after must be >= 1");
    shard_capacity_ =
        (opts_.memory_capacity + opts_.memory_shards - 1) / opts_.memory_shards;
    shards_.reserve(static_cast<std::size_t>(opts_.memory_shards));
    for (int i = 0; i < opts_.memory_shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
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

ModelCache::ModelPtr ModelCache::memory_lookup_locked(Shard& sh,
                                                      const CacheKey& key) const {
    auto it = sh.index.find(key.value);
    if (it == sh.index.end()) return nullptr;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // bump to most recent
    memory_hits_.add();
    return it->second->model;
}

void ModelCache::insert_locked(Shard& sh, const CacheKey& key, ModelPtr model) const {
    auto it = sh.index.find(key.value);
    if (it != sh.index.end()) {
        sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        it->second->model = std::move(model);
        return;
    }
    sh.lru.push_front(Entry{key, std::move(model)});
    sh.index[key.value] = sh.lru.begin();
    while (static_cast<int>(sh.lru.size()) > shard_capacity_) {
        sh.index.erase(sh.lru.back().key.value);
        sh.lru.pop_back();
        registry_.counter("model_cache.evictions").add();
    }
}

ModelCache::ModelPtr ModelCache::lookup(const CacheKey& key) {
    Shard& sh = shard(key);
    {
        util::MutexLock lock(sh.mutex);
        if (ModelPtr m = memory_lookup_locked(sh, key)) return m;
    }
    if (!disk_) return nullptr;
    ModelPtr m = disk_->load(key.hex());
    if (m) {
        registry_.counter("model_cache.disk_hits").add();
        util::MutexLock lock(sh.mutex);
        insert_locked(sh, key, m);
    }
    return m;
}

bool ModelCache::poisoned(const CacheKey& key) const {
    Shard& sh = shard(key);
    util::MutexLock lock(sh.mutex);
    auto it = sh.poisoned.find(key.value);
    return it != sh.poisoned.end() &&
           util::Deadline::clock::now() < it->second.expiry;
}

void ModelCache::record_build_failure(const CacheKey& key, std::exception_ptr error) {
    Shard& sh = shard(key);
    util::MutexLock lock(sh.mutex);
    const int failures = ++sh.consecutive_failures[key.value];
    if (failures >= opts_.poison_after) {
        sh.poisoned[key.value] =
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
    Shard& sh = shard(key);

    // A persisted artifact becomes a memory entry and counts as a disk hit.
    const auto probe_disk = [&]() -> ModelPtr {
        ModelPtr m = disk_->load(hex);
        if (m) {
            registry_.counter("model_cache.disk_hits").add();
            util::MutexLock lock(sh.mutex);
            sh.consecutive_failures.erase(key.value);
            insert_locked(sh, key, m);
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
        util::MutexLock lock(sh.mutex);
        sh.consecutive_failures.erase(key.value);
        sh.poisoned.erase(key.value);
        insert_locked(sh, key, model);
    }
    // Write-through persist — retried inside the store; an ultimate failure
    // is counted there, NOT thrown: the disk tier is an optimization and a
    // full disk must never fail a build that already succeeded.
    if (disk_) disk_->store(hex, *model);
    return model;
}

ModelCache::ModelPtr ModelCache::get_or_build(const CacheKey& key, const Builder& build,
                                              const util::Deadline& deadline) {
    Shard& sh = shard(key);
    {
        util::MutexLock lock(sh.mutex);
        if (ModelPtr m = memory_lookup_locked(sh, key)) return m;
        // Negative cache: a key whose builder keeps failing fails FAST (the
        // stored failure, rethrown) instead of re-running the builder on
        // every request. Expiry lets transient infrastructure failures heal.
        auto it = sh.poisoned.find(key.value);
        if (it != sh.poisoned.end()) {
            if (util::Deadline::clock::now() < it->second.expiry) {
                registry_.counter("model_cache.poison_hits").add();
                std::rethrow_exception(it->second.error);
            }
            sh.poisoned.erase(it);  // expired — try a real build again
        }
    }
    if (deadline.expired())
        throw util::DeadlineExceeded(
            "ModelCache: deadline expired before build for key " + key.hex());
    return flight_.run(
        key.value, [&] { return build_miss(key, build); }, deadline);
}

void ModelCache::evict_memory() {
    for (const auto& shard_ptr : shards_) {
        Shard& sh = *shard_ptr;
        util::MutexLock lock(sh.mutex);
        registry_.counter("model_cache.evictions")
            .add(static_cast<long long>(sh.lru.size()));
        sh.lru.clear();
        sh.index.clear();
    }
}

int ModelCache::memory_size() const {
    int total = 0;
    for (const auto& shard_ptr : shards_) {
        const Shard& sh = *shard_ptr;
        util::MutexLock lock(sh.mutex);
        total += static_cast<int>(sh.lru.size());
    }
    return total;
}

ModelCacheStats ModelCache::stats() const {
    const obs::Snapshot s = registry_.snapshot();
    return {s.counter("model_cache.memory_hits"), s.counter("model_cache.disk_hits"),
            s.counter("model_cache.builds"), s.counter("model_cache.evictions"),
            s.counter("model_cache.poisonings"), s.counter("model_cache.poison_hits")};
}

obs::Snapshot ModelCache::telemetry() const {
    obs::Snapshot s = registry_.snapshot();
    s.add_gauge("model_cache.shards", num_shards());
    s.add_gauge("model_cache.memory_size", memory_size());
    if (disk_) s.merge(disk_->telemetry());
    return s;
}

}  // namespace varmor::service
