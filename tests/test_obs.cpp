// src/obs — the telemetry layer. Pinned here: counters/gauges/histograms
// survive concurrent storms without losing increments; histogram snapshots
// merge exactly and their quantiles respect the log2 bucket bounds; traces
// collect spans in stage order and the ring-buffer store evicts oldest-
// first under bounded memory; and the OBSERVER EFFECT is zero — a mixed
// 8-client serving workload is bitwise identical to serve-alone with
// telemetry on AND with telemetry off, while StudyService::telemetry()
// returns one snapshot covering cache, disk store, pool, slab, fault and
// latency instruments.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "mor_test_utils.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/study_service.h"
#include "util/constants.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace varmor::obs {
namespace {

using la::cplx;
using la::ZMatrix;
using varmor::testing::small_parametric_rc;

/// Restores the runtime telemetry switch on scope exit (the registry and
/// trace store are process-global; tests must not leak a flipped switch
/// into other suites of this binary).
class EnabledGuard {
public:
    explicit EnabledGuard(bool on) : prev_(enabled()) { set_enabled(on); }
    ~EnabledGuard() { set_enabled(prev_); }

private:
    bool prev_;
};

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(ObsCounter, CountsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    c.reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(ObsCounter, ConcurrentAddStormLosesNothing) {
    Counter c;
    const int kThreads = 8;
    const int kAdds = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kAdds; ++i) c.add();
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kAdds);
}

TEST(ObsGauge, SetAddValue) {
    Gauge g;
    g.set(7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketIndexIsLog2) {
    EXPECT_EQ(Histogram::bucket_index(0), 0);
    EXPECT_EQ(Histogram::bucket_index(-5), 0);
    EXPECT_EQ(Histogram::bucket_index(1), 1);
    EXPECT_EQ(Histogram::bucket_index(2), 2);
    EXPECT_EQ(Histogram::bucket_index(3), 2);
    EXPECT_EQ(Histogram::bucket_index(4), 3);
    EXPECT_EQ(Histogram::bucket_index(1023), 10);
    EXPECT_EQ(Histogram::bucket_index(1024), 11);
    // Every value lands inside its bucket's [lo, hi] range.
    for (long long v : {1LL, 7LL, 64LL, 999LL, 1LL << 40}) {
        const int i = Histogram::bucket_index(v);
        EXPECT_GE(v, HistogramSnapshot::bucket_lo(i));
        EXPECT_LE(v, HistogramSnapshot::bucket_hi(i));
    }
}

TEST(ObsHistogram, ConcurrentRecordStormKeepsEverySample) {
    Histogram h;
    const int kThreads = 8;
    const int kRecords = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kRecords; ++i) h.record(1LL << (t % 12));
        });
    for (std::thread& t : threads) t.join();
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count(), static_cast<long long>(kThreads) * kRecords);
    long long expect_sum = 0;
    for (int t = 0; t < kThreads; ++t) expect_sum += kRecords * (1LL << (t % 12));
    EXPECT_EQ(s.sum, expect_sum);
}

TEST(ObsHistogram, QuantilesRespectBucketBounds) {
    Histogram h;
    for (long long v = 1; v <= 100; ++v) h.record(v);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count(), 100);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    // Log2 buckets guarantee <= 2x relative error: the true p50 is 50.5
    // (bucket [32, 63]), the true p99 is 100 (bucket [64, 127]).
    EXPECT_GE(s.p50(), 32.0);
    EXPECT_LE(s.p50(), 63.0);
    EXPECT_GE(s.p99(), 64.0);
    EXPECT_LE(s.p99(), 127.0);
    EXPECT_LE(s.p50(), s.p95());
    EXPECT_LE(s.p95(), s.p99());
    // Empty histogram: quantiles are 0, not UB.
    EXPECT_EQ(HistogramSnapshot{}.p50(), 0.0);
}

TEST(ObsHistogram, SnapshotMergeIsExact) {
    Histogram a;
    Histogram b;
    for (int i = 0; i < 100; ++i) a.record(10);
    for (int i = 0; i < 50; ++i) b.record(1000);
    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count(), 150);
    EXPECT_EQ(merged.sum, 100 * 10 + 50 * 1000);
    EXPECT_EQ(merged.buckets[Histogram::bucket_index(10)], 100);
    EXPECT_EQ(merged.buckets[Histogram::bucket_index(1000)], 50);
}

TEST(ObsSnapshot, MergeAndAccessors) {
    Snapshot a;
    a.add_counter("x.hits", 3);
    a.add_gauge("x.depth", 5);
    Snapshot b;
    b.add_counter("x.hits", 4);
    b.add_counter("y.misses", 1);
    b.add_gauge("x.depth", 2);
    a.merge(b);
    EXPECT_EQ(a.counter("x.hits"), 7);
    EXPECT_EQ(a.counter("y.misses"), 1);
    EXPECT_EQ(a.counter("absent.name"), 0);
    EXPECT_EQ(a.gauge("x.depth"), 7);
}

TEST(ObsSnapshot, ToJsonCarriesEveryInstrument) {
    Snapshot s;
    s.add_counter("cache.hits", 12);
    s.add_gauge("pool.depth", 3);
    Histogram h;
    h.record(100);
    h.record(200);
    s.add_histogram("lat.ns", h.snapshot());
    const std::string json = s.to_json(2);
    EXPECT_NE(json.find("\"cache.hits\": 12"), std::string::npos);
    EXPECT_NE(json.find("\"pool.depth\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"lat.ns\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(ObsRegistry, CreateOnFirstUseReturnsStableInstruments) {
    Registry reg;
    Counter& c1 = reg.counter("a.count");
    Counter& c2 = reg.counter("a.count");
    EXPECT_EQ(&c1, &c2);  // same name, same instrument
    c1.add(5);
    Histogram& h = reg.histogram("a.lat_ns");
    h.record(9);
    reg.gauge("a.depth").set(2);
    const Snapshot s = reg.snapshot();
    EXPECT_EQ(s.counter("a.count"), 5);
    EXPECT_EQ(s.gauge("a.depth"), 2);
    EXPECT_EQ(s.histograms.at("a.lat_ns").count(), 1);
    reg.reset();
    EXPECT_EQ(reg.snapshot().counter("a.count"), 0);
    EXPECT_EQ(&reg.counter("a.count"), &c1);  // reset keeps addresses
}

TEST(ObsRegistry, ConcurrentCreateAndCountStorm) {
    Registry reg;
    const int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i) reg.counter("storm.count").add();
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(reg.snapshot().counter("storm.count"), kThreads * 2000);
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

TEST(ObsTrace, MintIsUniqueAndActiveExactlyWhenEnabled) {
    if (!kCompiledIn) {
        EXPECT_FALSE(QueryTrace::mint().active());
        return;
    }
    {
        EnabledGuard on(true);
        const QueryTrace a = QueryTrace::mint();
        const QueryTrace b = QueryTrace::mint();
        EXPECT_TRUE(a.active());
        EXPECT_TRUE(b.active());
        EXPECT_NE(a.id, b.id);
        EXPECT_GT(a.submit_ns, 0);
    }
    {
        EnabledGuard off(false);
        EXPECT_FALSE(QueryTrace::mint().active());
    }
}

TEST(ObsTrace, SpansNestInStageOrderAndDropWhenFull) {
    if (!kCompiledIn) return;
    EnabledGuard on(true);
    QueryTrace trace = QueryTrace::mint();
    for (const Stage stage : {Stage::kQueueWait, Stage::kStamp, Stage::kSolve}) {
        const std::int64_t t0 = util::Timer::now_ns();
        trace.add(stage, t0, util::Timer::now_ns());
    }
    ASSERT_EQ(trace.num_spans, 3);
    EXPECT_EQ(trace.spans[0].stage, Stage::kQueueWait);
    EXPECT_EQ(trace.spans[1].stage, Stage::kStamp);
    EXPECT_EQ(trace.spans[2].stage, Stage::kSolve);
    // Recorded in submission order on one clock: each span begins at or
    // after the previous one ended, and none begins before submit.
    EXPECT_GE(trace.spans[0].begin_ns, trace.submit_ns);
    for (int i = 0; i < trace.num_spans; ++i) {
        EXPECT_LE(trace.spans[i].begin_ns, trace.spans[i].end_ns);
        if (i > 0) EXPECT_GE(trace.spans[i].begin_ns, trace.spans[i - 1].end_ns);
    }
    EXPECT_EQ(trace.last_end_ns(), trace.spans[2].end_ns);
    // Overflow: spans past kMaxSpans are dropped, never written OOB.
    for (int i = 0; i < QueryTrace::kMaxSpans + 3; ++i)
        trace.add(Stage::kFulfil, 1, 2);
    EXPECT_EQ(trace.num_spans, QueryTrace::kMaxSpans);
    // Inactive traces record nothing.
    QueryTrace inactive;
    inactive.add(Stage::kSolve, 1, 2);
    EXPECT_EQ(inactive.num_spans, 0);
}

TEST(ObsTrace, RingBufferEvictsOldestFirst) {
    if (!kCompiledIn) return;
    EnabledGuard on(true);
    TraceStore store(4);
    EXPECT_EQ(store.capacity(), 4u);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
        QueryTrace t = QueryTrace::mint();
        ids.push_back(t.id);
        store.record(t, "transfer");
    }
    EXPECT_EQ(store.recorded(), 6);
    EXPECT_EQ(store.evicted(), 2);
    const std::vector<TraceRecord> dumped = store.dump();
    ASSERT_EQ(dumped.size(), 4u);
    // Oldest two evicted; survivors oldest-first.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(dumped[static_cast<std::size_t>(i)].trace.id,
                  ids[static_cast<std::size_t>(i) + 2]);
        EXPECT_STREQ(dumped[static_cast<std::size_t>(i)].lane, "transfer");
    }
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.recorded(), 6);  // lifetime totals survive clear()
    // Inactive traces are never stored.
    store.record(QueryTrace{}, "pole");
    EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------------
// The serving stack under telemetry: zero observer effect, one snapshot.
// ---------------------------------------------------------------------------

circuit::ParametricSystem test_system() { return small_parametric_rc(30, 2, 77); }

service::StudyServiceOptions service_options() {
    service::StudyServiceOptions opts;
    opts.reduction.s_order = 3;
    opts.reduction.param_order = 2;
    opts.transient.transient.t_stop = 10.0;
    opts.transient.transient.dt = 0.5;
    opts.batcher.threads = 0;
    return opts;
}

void expect_bit_identical(const ZMatrix& a, const ZMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.raw().size(); ++k) {
        EXPECT_EQ(a.raw()[k].real(), b.raw()[k].real());
        EXPECT_EQ(a.raw()[k].imag(), b.raw()[k].imag());
    }
}

/// Runs the mixed 8-client workload against `session` and checks every
/// answer bitwise against the serve-alone references.
void run_mixed_workload_and_check(
    service::StudySession& session,
    const std::vector<std::vector<ZMatrix>>& ref_transfer,
    const std::vector<service::DelayResult>& ref_delay,
    const std::vector<std::vector<cplx>>& ref_poles) {
    const int kClients = 8;
    const int kFreqs = 4;
    const auto s_of = [](int j) { return cplx(0.0, util::two_pi_f(0.02 + 0.03 * j)); };
    const auto corner_of = [](int c) {
        return std::vector<double>{0.04 * c - 0.15, -0.03 * c + 0.1};
    };
    std::vector<std::vector<service::Future<ZMatrix>>> tf(kClients);
    std::vector<service::Future<service::DelayResult>> df(kClients);
    std::vector<service::Future<std::vector<cplx>>> pf(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (int j = 0; j < kFreqs; ++j)
                tf[c].push_back(session.transfer(corner_of(c), s_of(j)));
            df[c] = session.delay(corner_of(c));
            pf[c] = session.poles(corner_of(c));
        });
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
        for (int j = 0; j < kFreqs; ++j)
            expect_bit_identical(tf[c][static_cast<std::size_t>(j)].get(),
                                 ref_transfer[static_cast<std::size_t>(c)]
                                             [static_cast<std::size_t>(j)]);
        const service::DelayResult d = df[c].get();
        ASSERT_EQ(d.delay.has_value(),
                  ref_delay[static_cast<std::size_t>(c)].delay.has_value());
        if (d.delay)
            EXPECT_EQ(*d.delay, *ref_delay[static_cast<std::size_t>(c)].delay);
        const std::vector<cplx> poles = pf[c].get();
        const std::vector<cplx>& ref = ref_poles[static_cast<std::size_t>(c)];
        ASSERT_EQ(poles.size(), ref.size());
        for (std::size_t k = 0; k < poles.size(); ++k) {
            EXPECT_EQ(poles[k].real(), ref[k].real());
            EXPECT_EQ(poles[k].imag(), ref[k].imag());
        }
    }
}

TEST(ObsServing, TelemetryOnOffBitIdenticalToServeAlone) {
    const circuit::ParametricSystem sys = test_system();
    const int kClients = 8;
    const int kFreqs = 4;
    const auto s_of = [](int j) { return cplx(0.0, util::two_pi_f(0.02 + 0.03 * j)); };
    const auto corner_of = [](int c) {
        return std::vector<double>{0.04 * c - 0.15, -0.03 * c + 0.1};
    };

    service::ModelCache cache;
    service::StudyService service(cache, service_options());
    service::StudySession& session = service.open(sys);

    // Serve-alone references, computed once (telemetry state is irrelevant
    // to them by the same no-observer-effect contract this test pins).
    std::vector<std::vector<ZMatrix>> ref_transfer(kClients);
    std::vector<service::DelayResult> ref_delay;
    std::vector<std::vector<cplx>> ref_poles;
    for (int c = 0; c < kClients; ++c) {
        for (int j = 0; j < kFreqs; ++j)
            ref_transfer[static_cast<std::size_t>(c)].push_back(
                session.transfer_now(corner_of(c), s_of(j)));
        ref_delay.push_back(session.delay_now(corner_of(c)));
        ref_poles.push_back(session.poles_now(corner_of(c)));
    }

    {
        EnabledGuard on(true);
        run_mixed_workload_and_check(session, ref_transfer, ref_delay, ref_poles);
    }
    {
        EnabledGuard off(false);
        run_mixed_workload_and_check(session, ref_transfer, ref_delay, ref_poles);
    }
}

TEST(ObsServing, ServiceTelemetryIsOneCoherentSnapshot) {
    const circuit::ParametricSystem sys = test_system();
    service::ModelCache cache;
    service::StudyService service(cache, service_options());
    service::StudySession& session = service.open(sys);

    EnabledGuard on(true);
    const obs::Snapshot before = service.telemetry();

    const auto corner = std::vector<double>{0.05, -0.02};
    std::vector<service::Future<ZMatrix>> futures;
    for (int j = 0; j < 6; ++j)
        futures.push_back(
            session.transfer(corner, cplx(0.0, util::two_pi_f(0.02 + 0.01 * j))));
    auto delay = session.delay(corner);
    for (auto& f : futures) f.get();
    delay.get();
    session.flush();

    const obs::Snapshot snap = service.telemetry();

    // One snapshot, every subsystem: batcher/cache/disk/pool/slab/fault
    // counters and the latency histograms, all under their component names.
    EXPECT_GE(snap.counter("batcher.queries") - before.counter("batcher.queries"), 7);
    EXPECT_EQ(snap.counter("model_cache.builds"), 1);
    EXPECT_EQ(snap.counter("disk_store.loads"), 0);  // memory-only cache
    EXPECT_GE(snap.counter("pool.sections"), before.counter("pool.sections"));
    EXPECT_GE(snap.counter("slab_transfer.opened") -
                  before.counter("slab_transfer.opened"),
              6);
    EXPECT_GE(snap.counter("transient.corners"), 1);
    EXPECT_GE(snap.counter("solve.refactorizations"), 1);
    EXPECT_EQ(snap.gauge("service.sessions"), 1);
    if (kCompiledIn) {
        const auto it = snap.histograms.find("transfer.latency_ns");
        ASSERT_NE(it, snap.histograms.end());
        EXPECT_GE(it->second.count(), 6);
        EXPECT_GE(snap.histograms.at("query.solve_ns").count(), 6);
        EXPECT_GE(snap.counter("obs.traces_recorded"),
                  before.counter("obs.traces_recorded") + 7);
    }
    // Serializable end to end.
    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"batcher.queries\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// `batcher.largest_batch` is one flush's size, so the service roll-up over
// several sessions is their maximum, never their sum.
TEST(ObsServing, LargestBatchIsTheMaximumOverSessions) {
    service::ModelCache cache;
    service::StudyService service(cache, service_options());
    service::StudySession& a = service.open(test_system());
    service::StudySession& b = service.open(small_parametric_rc(30, 2, 78));
    ASSERT_EQ(service.num_sessions(), 2);

    const cplx s(0.0, util::two_pi_f(0.05));
    std::vector<service::Future<ZMatrix>> futures;
    for (int j = 0; j < 3; ++j) futures.push_back(a.transfer({0.01 * j, 0.0}, s));
    a.flush();
    for (int j = 0; j < 5; ++j) futures.push_back(b.transfer({0.01 * j, 0.0}, s));
    b.flush();
    for (auto& f : futures) f.get();

    const long long largest_a = a.batcher().telemetry().gauge("batcher.largest_batch");
    const long long largest_b = b.batcher().telemetry().gauge("batcher.largest_batch");
    ASSERT_GE(largest_a, 1);
    ASSERT_GE(largest_b, 1);
    EXPECT_EQ(service.telemetry().gauge("batcher.largest_batch"),
              std::max(largest_a, largest_b));
}

// Batcher, cache and disk-store counters belong to their instances, so a
// reset of the process registry (how a bench starts a measured phase) leaves
// them alone, while it zeroes the process-wide pool.* and query.* instruments.
TEST(ObsServing, InstanceCountersSurviveAProcessRegistryReset) {
    const std::string dir = ::testing::TempDir() + "/varmor_obs_reset";
    std::filesystem::remove_all(dir);
    service::ModelCacheOptions copts;
    copts.disk_dir = dir;
    service::ModelCache cache(copts);
    service::StudyService service(cache, service_options());
    service::StudySession& session = service.open(test_system());

    EnabledGuard on(true);
    const cplx s(0.0, util::two_pi_f(0.05));
    std::vector<service::Future<ZMatrix>> futures;
    for (int j = 0; j < 4; ++j) futures.push_back(session.transfer({0.01 * j, 0.0}, s));
    session.flush();
    for (auto& f : futures) f.get();
    util::ThreadPool(2).parallel_chunks(0, 16, [](int, int, int) {});

    const Snapshot before = service.telemetry();
    ASSERT_EQ(before.counter("batcher.queries"), 4);
    ASSERT_EQ(before.counter("model_cache.builds"), 1);
    ASSERT_EQ(before.counter("disk_store.stores"), 1);
    ASSERT_GE(before.counter("pool.chunks"), 1);
    if (kCompiledIn) ASSERT_GE(before.histograms.at("query.solve_ns").count(), 4);

    Registry::global().reset();
    const Snapshot after = service.telemetry();

    const auto per_instance = [](const std::string& name) {
        return name.rfind("batcher.", 0) == 0 || name.rfind("model_cache.", 0) == 0 ||
               name.rfind("disk_store.", 0) == 0;
    };
    for (const auto& [name, v] : before.counters)
        if (per_instance(name)) EXPECT_EQ(after.counter(name), v) << name;
    for (const auto& [name, v] : before.gauges)
        if (per_instance(name)) EXPECT_EQ(after.gauge(name), v) << name;
    EXPECT_EQ(after.counter("pool.chunks"), 0);
    EXPECT_EQ(after.counter("pool.steals"), 0);
    EXPECT_EQ(after.counter("pool.sections"), 0);
    EXPECT_EQ(after.gauge("pool.queue_high_water"), 0);
    for (const auto& [name, h] : after.histograms)
        if (name.rfind("query.", 0) == 0) EXPECT_EQ(h.count(), 0) << name;
}

TEST(ObsServing, FaultInjectorHitsExportedThroughSnapshot) {
    util::FaultInjector& injector = util::FaultInjector::instance();
    injector.clear();
#ifdef VARMOR_FAULT_INJECTION
    const long before = injector.hits("obs_test.point");
    util::ScopedFault fault("obs_test.point",
                            [](const std::string&, const std::string&) {});
    injector.fire("obs_test.point", "");
    injector.fire("obs_test.point", "");
    const obs::Snapshot snap = process_snapshot();
    EXPECT_EQ(snap.counter("fault.obs_test.point"), before + 2);
    EXPECT_EQ(injector.hit_counts().at("obs_test.point"), before + 2);
#else
    EXPECT_TRUE(injector.hit_counts().empty());
#endif
    injector.clear();
}

}  // namespace
}  // namespace varmor::obs
