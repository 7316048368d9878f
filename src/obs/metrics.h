#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/thread_annotations.h"

// ---------------------------------------------------------------------------
// src/obs — varmor's telemetry layer.
//
// Three instrument kinds, all safe to hit from any thread without taking a
// lock on the record path:
//
//   Counter    monotonic event count; one relaxed atomic add.
//   Gauge      last-written level (slab occupancy, queue depth).
//   Histogram  fixed 64-bucket log2 latency histogram; lock-free record,
//              snapshots merge and answer p50/p95/p99.
//
// Instruments live in a Registry (create-on-first-use, stable addresses) —
// the process one, or a serving component instance's own — and are read via
// Snapshot, an inert value type that merges and serializes to JSON, so
// benches and StudyService::telemetry() share one export path.
//
// Contract: observation NEVER perturbs results (instruments touch no
// numerics) and stays cheap enough that bench/service_throughput gates the
// overhead under 2%. Compile out entirely with -DVARMOR_TELEMETRY=OFF
// (instruments remain as inert stubs so call sites don't ifdef).
// ---------------------------------------------------------------------------

namespace varmor::obs {

#ifdef VARMOR_TELEMETRY_DISABLED
/// False when built with VARMOR_TELEMETRY=OFF: enabled() folds to a
/// compile-time constant and every timed span dead-codes away.
inline constexpr bool kCompiledIn = false;
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
inline constexpr bool kCompiledIn = true;

namespace detail {
inline std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> flag{true};
    return flag;
}
}  // namespace detail

/// Runtime master switch for the *timed* parts of telemetry (span clock
/// reads, trace minting, latency histograms). Plain counters stay live —
/// a relaxed add costs less than checking the flag would.
inline bool enabled() {
    return detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
    detail::enabled_flag().store(on, std::memory_order_relaxed);
}
#endif

/// Monotonic event counter. The hottest ones are added once per pool
/// chunk, transient corner or refactorization — far too rarely for writers
/// to contend on the one cache line.
class Counter {
public:
    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void add(long long delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
    long long value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<long long> v_{0};
};

/// Last-written level (occupancy, depth, configuration facts). set() wins
/// over concurrent set()s arbitrarily — gauges are approximate by nature.
class Gauge {
public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(long long v) { v_.store(v, std::memory_order_relaxed); }
    void add(long long delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
    /// High-water mark: raises the level to `v` when `v` is higher.
    void raise(long long v) {
        long long seen = v_.load(std::memory_order_relaxed);
        while (v > seen && !v_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
        }
    }
    long long value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<long long> v_{0};
};

/// Inert, mergeable copy of a Histogram: what Snapshot carries and what
/// quantile extraction runs on.
struct HistogramSnapshot {
    /// Bucket i counts samples whose value needs exactly i significant
    /// bits: bucket 0 holds v <= 0, bucket i holds [2^(i-1), 2^i - 1].
    /// Log2 buckets cover 1 ns .. ~9.2 s with <= 2x relative error —
    /// exactly the resolution latency percentiles need.
    static constexpr int kBuckets = 64;

    std::array<long long, kBuckets> buckets{};
    long long sum = 0;

    /// Inclusive value range of bucket i.
    static long long bucket_lo(int i);
    static long long bucket_hi(int i);

    long long count() const;
    double mean() const;

    /// q in [0, 1]; linear interpolation inside the selected bucket.
    /// Returns 0 for an empty histogram.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /// Pointwise accumulate — snapshots from different registries (or
    /// different moments of the same one) combine into a fleet view.
    void merge(const HistogramSnapshot& other);
};

/// Fixed-bucket log-scale histogram; record() is two relaxed atomic adds,
/// wait-free and allocation-free. Intended unit: nanoseconds, but any
/// non-negative long long works.
class Histogram {
public:
    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void record(long long v) {
        buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;
    void reset();

    /// log2 bucketing: 64 - clz(v), i.e. the number of significant bits.
    static int bucket_index(long long v);

private:
    std::array<std::atomic<long long>, HistogramSnapshot::kBuckets> buckets_{};
    std::atomic<long long> sum_{0};
};

/// One coherent, inert view of every instrument: plain maps (ordered, so
/// JSON output is deterministic), no atomics, freely copyable. This is the
/// type StudyService::telemetry() returns and benches embed in
/// BENCH_*.json.
struct Snapshot {
    std::map<std::string, long long> counters;
    std::map<std::string, long long> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    void add_counter(const std::string& name, long long v);
    void add_gauge(const std::string& name, long long v);
    void add_histogram(const std::string& name, const HistogramSnapshot& h);

    /// Counter value by name; 0 when absent (absent == never incremented,
    /// which IS zero — lets tests read without existence checks).
    long long counter(const std::string& name) const;
    long long gauge(const std::string& name) const;

    /// Accumulate another snapshot into this one (counters/gauges add,
    /// histograms merge) — how per-session views roll up into one.
    void merge(const Snapshot& other);

    /// Serialize as a JSON object. `indent` is the left margin applied to
    /// every line (for embedding inside a larger JSON document); inner
    /// nesting adds two spaces per level. Histograms render count / sum /
    /// mean / p50 / p95 / p99 plus the non-empty buckets as
    /// [lo, hi, count] triples.
    std::string to_json(int indent = 0) const;
};

/// Instrument registry: the process-wide one (global()) or a component's
/// own. Instruments are created on first use and never destroyed or moved
/// while the registry lives, so call sites may cache the returned reference
/// (the idiomatic hot-path pattern:
/// `static obs::Counter& c = obs::Registry::global().counter("splu.x");`).
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    static Registry& global();

    Counter& counter(const std::string& name) EXCLUDES(mutex_);
    Gauge& gauge(const std::string& name) EXCLUDES(mutex_);
    Histogram& histogram(const std::string& name) EXCLUDES(mutex_);

    /// Inert copy of every instrument registered so far.
    Snapshot snapshot() const EXCLUDES(mutex_);

    /// Zero every instrument (addresses stay valid). Tests and benches use
    /// this to take clean per-phase deltas.
    void reset() EXCLUDES(mutex_);

private:
    mutable util::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        GUARDED_BY(mutex_);
};

}  // namespace varmor::obs
