#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "la/simd.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail(const std::vector<double>& v) {
    Tail t;
    t.samples = v.size();
    t.p50 = median(v);
    const double n = static_cast<double>(v.size());
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (100.0 - pct) / 100.0 >= Tail::kTailSamples - 1e-9) {
            t.percentile = pct;
            t.value = quantile(v, pct / 100.0);
            break;
        }
    }
    return t;
}

std::vector<double> calm_samples(const std::vector<double>& v, std::size_t chunk) {
    chunk = std::max<std::size_t>(1, chunk);
    const std::size_t chunks = v.size() / chunk;
    if (chunks < 2) return v;
    std::vector<std::pair<double, std::size_t>> ranked;  // (median, first sample)
    for (std::size_t k = 0; k < chunks; ++k) {
        const auto first = v.begin() + static_cast<std::ptrdiff_t>(k * chunk);
        ranked.push_back({median(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(chunk))),
                          k * chunk});
    }
    std::sort(ranked.begin(), ranked.end());
    const auto keep = static_cast<std::size_t>(std::ceil(kCalmShare * static_cast<double>(chunks)));
    std::vector<double> out;
    for (std::size_t k = 0; k < keep; ++k) {
        const auto first = v.begin() + static_cast<std::ptrdiff_t>(ranked[k].second);
        out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(chunk));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
}

void Report::context(const std::string& key, const std::string& json_value) {
    context_.push_back({key, json_value});
}

void Report::context(const std::string& key, double value) {
    context(key, json_number(value));
}

void Report::fail_check(const std::string& what) {
    std::printf("CHECK FAIL: %s\n", what.c_str());
    ++attempted_;
    ++failed_;
}

void Report::print() const {
    std::string ctx = "{";
    for (std::size_t i = 0; i < context_.size(); ++i)
        ctx += (i ? ", " : "") + json_string(context_[i].first) + ": " + context_[i].second;
    std::printf("context: %s}\n", ctx.c_str());

    const bool correct = failed_ == 0 && attempted_ > 0;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto& [name, vu] = metrics_[i];
        out += (i ? ", " : "") + json_string(name) + ": {\"value\": " +
               json_number(vu.first) + ", \"unit\": " + json_string(vu.second) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open_spans;
}

Tracer& Tracer::global() {
    static Tracer tracer;
    return tracer;
}

int Tracer::begin(const char* name, std::uint64_t request) {
    if (!on()) return -1;
    const std::int64_t now = util::Timer::now_ns();
    const int parent = t_open_spans.empty() ? -1 : t_open_spans.back();
    int index = 0;
    {
        util::MutexLock lock(mutex_);
        index = static_cast<int>(spans_.size());
        spans_.push_back({name, now, now, parent, request});
    }
    t_open_spans.push_back(index);
    return index;
}

void Tracer::end(int index) {
    if (index < 0) return;
    const std::int64_t now = util::Timer::now_ns();
    if (!t_open_spans.empty() && t_open_spans.back() == index) t_open_spans.pop_back();
    util::MutexLock lock(mutex_);
    if (static_cast<std::size_t>(index) < spans_.size()) spans_[static_cast<std::size_t>(index)].end_ns = now;
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t request) {
    if (!on()) return;
    util::MutexLock lock(mutex_);
    spans_.push_back({name, start_ns, end_ns, -1, request});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
    util::MutexLock lock(mutex_);
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child_ms[static_cast<std::size_t>(s.parent)] += 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double ms = 1e-6 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        Totals& t = out[spans_[i].name];
        ++t.count;
        t.total_ms += ms;
        t.self_ms += ms - child_ms[i];
    }
    return out;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
    util::MutexLock lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_)
        if (name == s.name) out.push_back(1e-6 * static_cast<double>(s.end_ns - s.start_ns));
    return out;
}

void Tracer::clear() {
    util::MutexLock lock(mutex_);
    spans_.clear();
}

void Tracer::write(const std::string& path) const {
    util::MutexLock lock(mutex_);
    std::ofstream out(path, std::ios::app);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}\n";
    }
}

// ---------------------------------------------------------------------------
// Host and process
// ---------------------------------------------------------------------------

namespace {

/// Seconds for `threads` spinners to each finish the same fixed loop.
double spin_seconds(int threads) {
    constexpr long kIterations = 10'000'000;
    std::atomic<bool> go{false};
    std::vector<std::thread> spinners;
    for (int i = 0; i < threads; ++i)
        spinners.emplace_back([&go] {
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            volatile double x = 0.0;
            for (long k = 0; k < kIterations; ++k) x = x + 1e-9;
        });
    util::Timer t;
    go.store(true, std::memory_order_release);
    for (std::thread& th : spinners) th.join();
    return t.seconds();
}

}  // namespace

HostContext probe_host() {
    HostContext h;
    h.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
    // Best of two each: the width is the ratio of work done per second.
    double one = 1e300, all = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
        one = std::min(one, spin_seconds(1));
        all = std::min(all, spin_seconds(h.nproc));
    }
    h.width = static_cast<double>(h.nproc) * one / all;
    h.simd = la::simd::kActive;
    h.telemetry = obs::kCompiledIn;
    h.pool = util::ThreadPool::global().size();
    return h;
}

void record_host(const HostContext& host, Report& report) {
    report.context("nproc", host.nproc);
    report.context("measured_width", host.width);
    report.context("simd_active", host.simd ? "true" : "false");
    report.context("telemetry_compiled_in", host.telemetry ? "true" : "false");
    report.context("pool_threads", host.pool);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool same_model(const mor::ReducedModel& a, const mor::ReducedModel& b) {
    if (!same_bits(a.g0, b.g0) || !same_bits(a.c0, b.c0) || !same_bits(a.b, b.b) ||
        !same_bits(a.l, b.l) || a.dg.size() != b.dg.size() || a.dc.size() != b.dc.size())
        return false;
    for (std::size_t i = 0; i < a.dg.size(); ++i)
        if (!same_bits(a.dg[i], b.dg[i])) return false;
    for (std::size_t i = 0; i < a.dc.size(); ++i)
        if (!same_bits(a.dc[i], b.dc[i])) return false;
    return true;
}

double print_attribution(const std::string& what, double measured,
                         const std::vector<std::pair<std::string, double>>& parts,
                         const std::string& unit) {
    double predicted = 0.0;
    std::string terms;
    for (const auto& [name, value] : parts) {
        predicted += value;
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s%s %.4g", terms.empty() ? "" : " + ", name.c_str(), value);
        terms += buf;
    }
    const double residual = measured > 0.0 ? 100.0 * (measured - predicted) / measured : 0.0;
    std::printf("attribution %s: measured %.4g %s; predicted %s = %.4g %s; residual %+.1f%%\n",
                what.c_str(), measured, unit.c_str(), terms.c_str(), predicted, unit.c_str(),
                residual);
    return residual;
}

int repeat_for(double seconds, const std::function<void(int iteration)>& body) {
    util::Timer t;
    int iterations = 0;
    do {
        body(iterations++);
    } while (t.seconds() < seconds);
    return iterations;
}

}  // namespace perfbench
