#include "obs/trace.h"

namespace varmor::obs {

QueryTrace QueryTrace::mint() {
    QueryTrace t;
    if (!enabled()) return t;  // inactive: id stays 0, no clock read
    static std::atomic<std::uint64_t> next_id{1};
    t.id = next_id.fetch_add(1, std::memory_order_relaxed);
    t.submit_ns = util::Timer::now_ns();
    return t;
}

TraceStore::TraceStore(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1) {}

TraceStore& TraceStore::global() {
    static TraceStore store;
    return store;
}

void TraceStore::record(const QueryTrace& trace, const char* lane) {
    if (!trace.active()) return;
    util::MutexLock lock(mutex_);
    if (count_ == ring_.size())
        ++evicted_;
    else
        ++count_;
    ring_[next_] = TraceRecord{trace, lane};
    next_ = (next_ + 1) % ring_.size();
    ++recorded_;
}

std::vector<TraceRecord> TraceStore::dump() const {
    util::MutexLock lock(mutex_);
    std::vector<TraceRecord> out;
    out.reserve(count_);
    // Oldest slot: next_ - count_ modulo capacity.
    const std::size_t cap = ring_.size();
    const std::size_t first = (next_ + cap - count_ % cap) % cap;
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(first + i) % cap]);
    return out;
}

void TraceStore::clear() {
    util::MutexLock lock(mutex_);
    next_ = 0;
    count_ = 0;
    // recorded_/evicted_ are lifetime totals and survive a clear().
}

std::size_t TraceStore::size() const {
    util::MutexLock lock(mutex_);
    return count_;
}

long long TraceStore::recorded() const {
    util::MutexLock lock(mutex_);
    return recorded_;
}

long long TraceStore::evicted() const {
    util::MutexLock lock(mutex_);
    return evicted_;
}

}  // namespace varmor::obs
