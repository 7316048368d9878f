#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace varmor::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_index(long long v) {
    if (v <= 0) return 0;
    int bits = 0;
    unsigned long long u = static_cast<unsigned long long>(v);
#if defined(__GNUC__) || defined(__clang__)
    bits = 64 - __builtin_clzll(u);
#else
    while (u != 0) {
        ++bits;
        u >>= 1;
    }
#endif
    return std::min(bits, HistogramSnapshot::kBuckets - 1);
}

HistogramSnapshot Histogram::snapshot() const {
    HistogramSnapshot s;
    for (int i = 0; i < HistogramSnapshot::kBuckets; ++i)
        s.buckets[static_cast<std::size_t>(i)] =
            buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
}

void Histogram::reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

long long HistogramSnapshot::bucket_lo(int i) {
    if (i <= 0) return 0;
    return 1LL << (i - 1);
}

long long HistogramSnapshot::bucket_hi(int i) {
    if (i <= 0) return 0;
    if (i >= 63) return std::numeric_limits<long long>::max();
    return (1LL << i) - 1;
}

long long HistogramSnapshot::count() const {
    long long n = 0;
    for (long long b : buckets) n += b;
    return n;
}

double HistogramSnapshot::mean() const {
    const long long n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

double HistogramSnapshot::quantile(double q) const {
    const long long n = count();
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested sample (0-based, continuous): walk buckets
    // until the cumulative count covers it, then interpolate linearly
    // across the covering bucket's value range.
    const double rank = q * static_cast<double>(n - 1);
    long long cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
        const long long b = buckets[static_cast<std::size_t>(i)];
        if (b == 0) continue;
        if (rank < static_cast<double>(cum + b)) {
            const double within =
                (rank - static_cast<double>(cum)) / static_cast<double>(b);
            const double lo = static_cast<double>(bucket_lo(i));
            const double hi = static_cast<double>(bucket_hi(i));
            return lo + within * (hi - lo);
        }
        cum += b;
    }
    return static_cast<double>(bucket_hi(kBuckets - 1));
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
    for (int i = 0; i < kBuckets; ++i)
        buckets[static_cast<std::size_t>(i)] +=
            other.buckets[static_cast<std::size_t>(i)];
    sum += other.sum;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

void Snapshot::add_counter(const std::string& name, long long v) {
    counters[name] += v;
}

void Snapshot::add_gauge(const std::string& name, long long v) {
    gauges[name] += v;
}

void Snapshot::add_histogram(const std::string& name,
                             const HistogramSnapshot& h) {
    histograms[name].merge(h);
}

long long Snapshot::counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

long long Snapshot::gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
}

void Snapshot::merge(const Snapshot& other) {
    for (const auto& [name, v] : other.counters) counters[name] += v;
    for (const auto& [name, v] : other.gauges) gauges[name] += v;
    for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

}  // namespace

std::string Snapshot::to_json(int indent) const {
    const std::string m(static_cast<std::size_t>(std::max(indent, 0)), ' ');
    std::ostringstream os;
    os << "{\n";

    auto emit_scalar_map = [&](const char* key,
                               const std::map<std::string, long long>& map,
                               bool trailing_comma) {
        os << m << "  \"" << key << "\": {";
        bool first = true;
        for (const auto& [name, v] : map) {
            os << (first ? "\n" : ",\n") << m << "    \""
               << json_escape(name) << "\": " << v;
            first = false;
        }
        if (!first) os << "\n" << m << "  ";
        os << "}" << (trailing_comma ? "," : "") << "\n";
    };

    emit_scalar_map("counters", counters, true);
    emit_scalar_map("gauges", gauges, true);

    os << m << "  \"histograms\": {";
    bool first_h = true;
    for (const auto& [name, h] : histograms) {
        os << (first_h ? "\n" : ",\n") << m << "    \"" << json_escape(name)
           << "\": {\n";
        os << m << "      \"count\": " << h.count() << ",\n";
        os << m << "      \"sum\": " << h.sum << ",\n";
        os << m << "      \"mean\": " << fmt_double(h.mean()) << ",\n";
        os << m << "      \"p50\": " << fmt_double(h.p50()) << ",\n";
        os << m << "      \"p95\": " << fmt_double(h.p95()) << ",\n";
        os << m << "      \"p99\": " << fmt_double(h.p99()) << ",\n";
        os << m << "      \"buckets\": [";
        bool first_b = true;
        for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
            const long long b = h.buckets[static_cast<std::size_t>(i)];
            if (b == 0) continue;
            os << (first_b ? "" : ", ") << "["
               << HistogramSnapshot::bucket_lo(i) << ", "
               << HistogramSnapshot::bucket_hi(i) << ", " << b << "]";
            first_b = false;
        }
        os << "]\n" << m << "    }";
        first_h = false;
    }
    if (!first_h) os << "\n" << m << "  ";
    os << "}\n";

    os << m << "}";
    return os.str();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
    static Registry registry;
    return registry;
}

Counter& Registry::counter(const std::string& name) {
    util::MutexLock lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
    util::MutexLock lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
    util::MutexLock lock(mutex_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>();
    return *slot;
}

Snapshot Registry::snapshot() const {
    Snapshot s;
    util::MutexLock lock(mutex_);
    for (const auto& [name, c] : counters_) s.add_counter(name, c->value());
    for (const auto& [name, g] : gauges_) s.add_gauge(name, g->value());
    for (const auto& [name, h] : histograms_)
        s.add_histogram(name, h->snapshot());
    return s;
}

void Registry::reset() {
    util::MutexLock lock(mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace varmor::obs
