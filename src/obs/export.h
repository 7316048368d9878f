#pragma once

#include "obs/metrics.h"

namespace varmor::obs {

/// One coherent snapshot of every process-wide telemetry source: the
/// process Registry (thread-pool scheduling `pool.*` included), the fault
/// injector's hit counts (`fault.<point>`), and the trace store's occupancy
/// (`obs.traces_*`). Counters owned by a component instance (model cache,
/// disk store, query batchers) are in that instance's own registry;
/// StudyService::telemetry() merges them on top.
Snapshot process_snapshot();

}  // namespace varmor::obs
