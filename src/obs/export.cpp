#include "obs/export.h"

#include <string>

#include "obs/trace.h"
#include "util/fault_injection.h"

namespace varmor::obs {

Snapshot process_snapshot() {
    Snapshot s = Registry::global().snapshot();

    // Fault points are registered dynamically by their call sites; export
    // each hit counter under the `fault.` prefix.
    for (const auto& [point, count] :
         util::FaultInjector::instance().hit_counts()) {
        const std::string name = "fault." + point;
        s.add_counter(name, count);
    }

    const TraceStore& traces = TraceStore::global();
    s.add_counter("obs.traces_recorded", traces.recorded());
    s.add_counter("obs.traces_evicted", traces.evicted());
    s.add_gauge("obs.traces_stored", static_cast<long long>(traces.size()));
    s.add_gauge("obs.trace_capacity",
                static_cast<long long>(traces.capacity()));

    return s;
}

}  // namespace varmor::obs
