#pragma once

// Shared pieces of the varmor benchmark: run arguments, statistics, the
// result line, benchmark-side tracing spans and host context.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "la/dense.h"
#include "mor/reduced_model.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace perfbench {

using namespace varmor;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the timed phase
    bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
    std::string work_dir;   ///< scratch directory owned by this run
    /// serve's three fixed offered rates [requests/s].
    struct Rates {
        double light = 0.0, ref = 0.0, heavy = 0.0;
    } rates;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
/// Quantile q in [0, 1], linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);

/// A timing reported as its median plus the highest percentile that still has
/// at least kTailSamples samples beyond it, with the sample count.
struct Tail {
    static constexpr double kTailSamples = 10.0;
    double p50 = 0.0;
    double percentile = 0.0;  ///< e.g. 99 for p99; 0 when too few samples
    double value = 0.0;       ///< the value at `percentile`
    std::size_t samples = 0;
};
Tail tail(const std::vector<double>& v);

/// The samples of the calm part of a run, from which the end-to-end timings
/// of single-threaded operations are taken. The samples (in time order) are
/// cut into chunks of `chunk` consecutive samples, the chunks are ranked by
/// their median, and the samples of the lowest kCalmShare of them (at least
/// one chunk) are returned together. On a shared host a core is slowed, by
/// up to 1.8x, for stretches of 0.1 to 10 s, and a chunk inside such a
/// stretch is slow as a whole; the calm chunks show the program's own speed
/// unless nearly all of the run was slowed, while a change to the program
/// moves every chunk. Work spread over all cores averages the slowdowns of
/// its cores and is reported by its plain median instead. A last partial
/// chunk is left out; fewer than two chunks' worth of samples are returned
/// as they are.
constexpr double kCalmShare = 0.05;
std::vector<double> calm_samples(const std::vector<double>& v, std::size_t chunk);

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

/// Collects metrics, operation counts and context, and prints the final JSON
/// line the benchmark contract asks for.
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// A context field (printed on its own line, never a metric).
    void context(const std::string& key, const std::string& json_value);
    void context(const std::string& key, double value);

    /// One operation attempted; `ok` false counts it as failed.
    void op(bool ok) {
        ++attempted_;
        if (!ok) ++failed_;
    }
    void ops(long attempted, long failed) {
        attempted_ += attempted;
        failed_ += failed;
    }
    /// A failed output check that is not tied to one counted operation.
    void fail_check(const std::string& what);

    /// Prints the context line, then the result object as the last line.
    void print() const;

private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
    std::vector<std::pair<std::string, std::string>> context_;
    long attempted_ = 0;
    long failed_ = 0;
};

// ---------------------------------------------------------------------------
// Benchmark-side tracing
// ---------------------------------------------------------------------------

/// In-memory span store. A span has a name, start, end, the span that was
/// open on the same thread when it began (its parent), and a request id
/// shared by the spans of one request. Disabled (every call a no-op) unless
/// the run is traced. Written out once, at exit.
class Tracer {
public:
    struct Span {
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        int parent;              ///< index of the parent span, -1 for a root
        std::uint64_t request;   ///< 0 = not part of a request
    };
    struct Totals {
        long count = 0;
        double total_ms = 0.0;  ///< sum of span durations
        double self_ms = 0.0;   ///< sum of durations minus child spans
    };

    static Tracer& global();

    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool on() const { return on_.load(std::memory_order_relaxed); }

    /// Opens a span on this thread; returns its index (-1 when disabled).
    int begin(const char* name, std::uint64_t request = 0) EXCLUDES(mutex_);
    void end(int index) EXCLUDES(mutex_);
    /// Records a span measured elsewhere (e.g. a request's latency, which
    /// starts on the generator thread and ends on a collector thread).
    void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t request) EXCLUDES(mutex_);

    /// Per-name totals over every span recorded since the last clear().
    std::map<std::string, Totals> totals() const EXCLUDES(mutex_);
    /// Durations (ms) of every span with this name, in recording order.
    std::vector<double> durations_ms(const std::string& name) const EXCLUDES(mutex_);
    void clear() EXCLUDES(mutex_);

    /// Appends every span as one JSON object per line.
    void write(const std::string& path) const EXCLUDES(mutex_);

private:
    std::atomic<bool> on_{false};
    mutable util::Mutex mutex_;
    std::vector<Span> spans_ GUARDED_BY(mutex_);
};

/// RAII span around one call into a layer.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, std::uint64_t request = 0)
        : index_(Tracer::global().begin(name, request)) {}
    ~ScopedSpan() { Tracer::global().end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    int index_;
};

// ---------------------------------------------------------------------------
// Host and process
// ---------------------------------------------------------------------------

/// Comparable-host context recorded with every run.
struct HostContext {
    int nproc = 1;
    double width = 1.0;  ///< measured: nproc spinners against one
    bool simd = false;   ///< la::simd::kActive
    bool telemetry = false;  ///< obs::kCompiledIn
    int pool = 1;        ///< util::ThreadPool::global().size()
};
HostContext probe_host();
void record_host(const HostContext& host, Report& report);

/// getrusage maximum resident set size of this process, in MB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

template <class T>
bool same_bits(const la::MatrixT<T>& a, const la::MatrixT<T>& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.raw().empty() ||
            std::memcmp(a.raw().data(), b.raw().data(), a.raw().size() * sizeof(T)) == 0);
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_model(const mor::ReducedModel& a, const mor::ReducedModel& b);

/// Prints one attribution line: a measured value against the sum of its
/// predicted parts, with the unexplained residual in percent of the measured
/// value. Returns the residual.
double print_attribution(const std::string& what, double measured,
                         const std::vector<std::pair<std::string, double>>& parts,
                         const std::string& unit);

/// Runs `body` repeatedly until `seconds` have elapsed (at least once).
/// Returns the number of iterations.
int repeat_for(double seconds, const std::function<void(int iteration)>& body);

}  // namespace perfbench
