#pragma once

#include "obs/metrics.h"
#include "service/model_cache.h"
#include "service/query_batcher.h"

namespace varmor::service {

// ---------------------------------------------------------------------------
// Service-layer telemetry export: folds the component-owned stats structs
// (cache shards, disk store, batcher lanes, result slabs) into an
// obs::Snapshot under stable `component.metric` names. This file OWNS those
// names — varmor-lint's obs-naming rule keeps each metric name registered in
// exactly one file — so the JSON vocabulary of StudyService::telemetry()
// and the bench artifacts is defined in one place.
//
// Multi-session roll-ups: counters and occupancy-style gauges (slab in_use,
// capacity) add across sessions; `batcher.largest_batch` is the maximum
// over the exported sessions, since a sum of per-session maxima is no flush
// that ever ran.
// ---------------------------------------------------------------------------

/// `model_cache.*` + `disk_store.*` counters from a cache's stats snapshot.
void export_model_cache(const ModelCache& cache, obs::Snapshot& out);

/// `batcher.*` counters and the three `slab_*.{capacity,in_use,...}`
/// instruments of one batcher.
void export_batcher(const QueryBatcher& batcher, obs::Snapshot& out);

}  // namespace varmor::service
