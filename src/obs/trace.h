#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

// ---------------------------------------------------------------------------
// Per-query tracing: where did THIS query spend its time?
//
// A QueryTrace is minted at StudySession submit (a trace id + submit
// timestamp), rides inside the QueryBatcher item through triage → flush lane
// → slab fulfilment, and collects one Span per pipeline stage:
//
//   kQueueWait   submit → flusher triage (time spent in the ingress queue)
//   kStamp       parameter stamping (per flush group, shared by its items)
//   kSolve       the engine solve for this item
//   kFulfil      solve end → result visible in the slab channel
//
// Completed traces land in a bounded ring-buffer TraceStore (oldest evicted
// first) and are dumped on demand — memory is fixed at construction, the
// record path is one short critical section, and when telemetry is disabled
// mint() returns an inactive trace so not a single clock read happens.
// ---------------------------------------------------------------------------

namespace varmor::obs {

/// Pipeline stages a query's spans can name.
enum class Stage : std::uint8_t { kQueueWait = 0, kStamp, kSolve, kFulfil };

/// Half-open [begin, end) interval on util::Timer's monotonic clock.
struct Span {
    Stage stage = Stage::kQueueWait;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;

    std::int64_t duration_ns() const { return end_ns - begin_ns; }
};

/// The trace a query carries through the serving stack. POD-copyable and
/// fixed-size so it can live inside batcher items and slab records without
/// allocation. id == 0 means "tracing off for this query" — every recording
/// call is a cheap no-op then.
struct QueryTrace {
    static constexpr int kMaxSpans = 6;

    std::uint64_t id = 0;
    std::int64_t submit_ns = 0;
    Span spans[kMaxSpans];
    int num_spans = 0;
    /// False once the query resolved to an error future (expired, stamp or
    /// solve failure) — dumped traces distinguish slow from failed.
    bool ok = true;

    bool active() const { return id != 0; }

    /// Append a completed span; silently dropped when full (bounded memory
    /// beats completeness here).
    void add(Stage stage, std::int64_t begin_ns, std::int64_t end_ns) {
        if (!active() || num_spans >= kMaxSpans) return;
        spans[num_spans++] = Span{stage, begin_ns, end_ns};
    }

    /// End of the most recent span (submit time when none) — where the next
    /// stage's span picks up.
    std::int64_t last_end_ns() const {
        return num_spans > 0 ? spans[num_spans - 1].end_ns : submit_ns;
    }

    /// Mint a live trace (fresh process-unique id, submit timestamp) —
    /// or an inactive one, with zero clock reads, when telemetry is off.
    static QueryTrace mint();
};

/// A completed query's trace as stored/dumped: the spans plus which lane
/// fulfilled it (trace.ok says whether it produced a value or an error).
struct TraceRecord {
    QueryTrace trace;
    const char* lane = "";  ///< static string: "transfer", "delay", "pole"
};

/// Bounded ring buffer of completed traces. Memory is allocated once at
/// construction; when full, recording evicts the oldest. dump() returns
/// oldest-first.
class TraceStore {
public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit TraceStore(std::size_t capacity = kDefaultCapacity);
    TraceStore(const TraceStore&) = delete;
    TraceStore& operator=(const TraceStore&) = delete;

    /// The process-wide store the serving stack records into.
    static TraceStore& global();

    /// No-op for inactive traces.
    void record(const QueryTrace& trace, const char* lane) EXCLUDES(mutex_);

    std::vector<TraceRecord> dump() const EXCLUDES(mutex_);
    void clear() EXCLUDES(mutex_);

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const EXCLUDES(mutex_);
    long long recorded() const EXCLUDES(mutex_);  ///< lifetime total
    long long evicted() const EXCLUDES(mutex_);   ///< overwritten-when-full

private:
    mutable util::Mutex mutex_;
    std::vector<TraceRecord> ring_;  ///< sized once; slots overwritten
    std::size_t next_ GUARDED_BY(mutex_) = 0;
    std::size_t count_ GUARDED_BY(mutex_) = 0;
    long long recorded_ GUARDED_BY(mutex_) = 0;
    long long evicted_ GUARDED_BY(mutex_) = 0;
};

}  // namespace varmor::obs
