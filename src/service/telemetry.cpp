#include "service/telemetry.h"

#include <algorithm>
#include <string>

#include "util/result_slab.h"

namespace varmor::service {

namespace {

void export_slab(const char* prefix, const util::ResultSlabStats& s,
                 obs::Snapshot& out) {
    const std::string p(prefix);
    out.add_gauge(p + ".capacity", static_cast<long long>(s.capacity));
    out.add_gauge(p + ".in_use", static_cast<long long>(s.in_use));
    out.add_counter(p + ".opened", s.opened);
    out.add_counter(p + ".recycled", s.recycled);
}

}  // namespace

void export_model_cache(const ModelCache& cache, obs::Snapshot& out) {
    const ModelCacheStats c = cache.stats();
    out.add_counter("model_cache.memory_hits", c.memory_hits);
    out.add_counter("model_cache.disk_hits", c.disk_hits);
    out.add_counter("model_cache.builds", c.builds);
    out.add_counter("model_cache.evictions", c.evictions);
    out.add_counter("model_cache.poisonings", c.poisonings);
    out.add_counter("model_cache.poison_hits", c.poison_hits);
    out.add_gauge("model_cache.shards", cache.num_shards());
    out.add_gauge("model_cache.memory_size", cache.memory_size());

    const DiskStoreStats d = cache.disk_stats();
    out.add_counter("disk_store.loads", d.loads);
    out.add_counter("disk_store.load_failures", d.load_failures);
    out.add_counter("disk_store.stores", d.stores);
    out.add_counter("disk_store.store_failures", d.store_failures);
    out.add_counter("disk_store.retries", d.retries);
    out.add_counter("disk_store.gc_removed", d.gc_removed);
    out.add_counter("disk_store.tmp_removed", d.tmp_removed);
}

void export_batcher(const QueryBatcher& batcher, obs::Snapshot& out) {
    const QueryBatcherStats s = batcher.stats();
    out.add_counter("batcher.queries", s.queries);
    out.add_counter("batcher.batches", s.batches);
    out.add_counter("batcher.transfer_queries", s.transfer_queries);
    out.add_counter("batcher.transfer_groups", s.transfer_groups);
    out.add_counter("batcher.shed", s.shed);
    out.add_counter("batcher.expired", s.expired);
    out.add_counter("batcher.rejected_closed", s.rejected_closed);
    out.add_counter("batcher.flush_failures", s.flush_failures);
    long long& largest = out.gauges["batcher.largest_batch"];
    largest = std::max<long long>(largest, s.largest_batch);

    export_slab("slab_transfer", batcher.transfer_slab_stats(), out);
    export_slab("slab_delay", batcher.delay_slab_stats(), out);
    export_slab("slab_pole", batcher.pole_slab_stats(), out);
}

}  // namespace varmor::service
