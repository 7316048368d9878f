// The fault-tolerance layer, driven through the util::FaultInjector hook
// points. The three serving invariants pinned here:
//
//   1. No future is ever left unfulfilled — every accepted query resolves to
//      a value or an exception, no matter which fault fires.
//   2. Non-faulted queries are bitwise identical to serve-alone: a fault in
//      one query of a coalesced batch never perturbs (or re-runs) the rest.
//   3. The service keeps accepting and answering work after ANY injected
//      fault — faults are contained, never wedging.
//
// Plus the failure taxonomy (OverloadError / DeadlineExceeded /
// ServiceClosed as failed futures, never throws into the producer) and the
// ModelCache poison / degraded-session / healing cycle.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "held_flusher.h"
#include "mor/lowrank_pmor.h"
#include "mor_test_utils.h"
#include "obs/export.h"
#include "service/study_service.h"
#include "util/constants.h"
#include "util/fault_injection.h"

namespace varmor::service {
namespace {

using la::cplx;
using la::ZMatrix;
using util::FaultInjected;
using util::FaultInjector;
using util::ScopedFault;
using varmor::testing::HeldFlusher;
using varmor::testing::plug;
using varmor::testing::small_parametric_rc;

circuit::ParametricSystem test_system() { return small_parametric_rc(30, 2, 91); }

StudyServiceOptions service_options() {
    StudyServiceOptions opts;
    opts.reduction.s_order = 3;
    opts.reduction.param_order = 2;
    opts.transient.transient.t_stop = 10.0;
    opts.transient.transient.dt = 0.5;
    opts.batcher.threads = 1;
    return opts;
}

std::string fresh_disk_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// Cache options tuned for fault tests: one failure poisons, poison heals
/// fast, retries are quick.
ModelCacheOptions fault_cache_options(const std::string& disk_dir) {
    ModelCacheOptions copts;
    copts.disk_dir = disk_dir;
    copts.poison_after = 1;
    copts.poison_ttl_ms = 50.0;
    copts.retry.backoff_ms = 0.1;
    return copts;
}

/// Invariant 1 helper: the ticket must RESOLVE (either way) promptly.
/// Generic over the handle (service::Future tickets and std::future alike —
/// both expose the same wait_for surface).
template <class FutureT>
::testing::AssertionResult resolves(FutureT& f) {
    if (f.wait_for(std::chrono::seconds(30)) == std::future_status::ready)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "future left unfulfilled";
}

/// get() that reports value-vs-error without throwing out of the test body.
template <class FutureT>
bool got_value(FutureT&& f) {
    try {
        (void)f.get();
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

void expect_bit_identical(const ZMatrix& a, const ZMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.raw().size(); ++k) {
        EXPECT_EQ(a.raw()[k].real(), b.raw()[k].real());
        EXPECT_EQ(a.raw()[k].imag(), b.raw()[k].imag());
    }
}

TEST(FaultInjection, InjectorArmsFiresCountsAndDisarms) {
    FaultInjector::instance().clear();
    auto hit = [] { VARMOR_FAULT_POINT_DETAIL("test.point", "d0"); };

    // Nothing armed: the point is inert (and costs one relaxed load).
    EXPECT_FALSE(FaultInjector::armed());
    hit();
    EXPECT_EQ(FaultInjector::instance().hits("test.point"), 0);

    {
        ScopedFault fault("test.point", FaultInjector::fail("injected"));
        EXPECT_TRUE(FaultInjector::armed());
        EXPECT_THROW(hit(), FaultInjected);
        EXPECT_THROW(hit(), FaultInjected);
        EXPECT_EQ(FaultInjector::instance().hits("test.point"), 2);
    }
    // Scope ended: disarmed again.
    EXPECT_FALSE(FaultInjector::armed());
    hit();
    EXPECT_EQ(FaultInjector::instance().hits("test.point"), 2);

    // fail_first passes once exhausted; fail_detail targets one call site.
    {
        ScopedFault fault("test.point", FaultInjector::fail_first(2, "transient"));
        EXPECT_THROW(hit(), FaultInjected);
        EXPECT_THROW(hit(), FaultInjected);
        hit();  // third hit passes
    }
    {
        ScopedFault fault("test.point", FaultInjector::fail_detail("d0", "targeted"));
        EXPECT_THROW(hit(), FaultInjected);
        VARMOR_FAULT_POINT_DETAIL("test.point", "other");  // different detail passes
    }
    FaultInjector::instance().clear();
}

// ---------------------------------------------------------------------------
// The every-fault-point driver: for each named point in the serving stack,
// arm an unconditional failure, push a mixed workload through a cold
// service, and assert the three invariants. (model_cache.reload_verify needs
// a warm disk artifact and has its own test below.)
// ---------------------------------------------------------------------------

TEST(FaultInjection, EveryFaultPointIsSurvivable) {
    const circuit::ParametricSystem sys = test_system();
    const std::vector<std::vector<double>> corners{
        {0.0, 0.0}, {0.1, -0.05}, {-0.08, 0.12}};
    const cplx s(0.0, util::two_pi_f(0.05));

    const std::vector<std::string> points{
        "model_cache.disk_read",    "model_cache.disk_write",
        "model_cache.rename",       "model_cache.build",
        "query_batcher.stamp",      "query_batcher.flush",
        "study_session.construct",  "transient.corner",
        "trapezoid_cache.build",
    };

    for (const std::string& point : points) {
        SCOPED_TRACE(point);
        FaultInjector::instance().clear();
        ModelCache cache(fault_cache_options(
            fresh_disk_dir("varmor_fault_" + point)));
        StudyService service(cache, service_options());

        {
            ScopedFault fault(point, FaultInjector::fail("injected: " + point));
            StudySession* session = nullptr;
            try {
                session = &service.open(sys);
            } catch (const std::exception&) {
                // Construction-path faults surface here; the service itself
                // must still be usable (asserted below, faults cleared).
            }
            if (session) {
                // Invariant 1: whatever the fault does, every future
                // resolves — value or exception, never a hang.
                std::vector<Future<ZMatrix>> tf;
                std::vector<Future<DelayResult>> df;
                std::vector<Future<std::vector<cplx>>> pf;
                for (const auto& p : corners) {
                    tf.push_back(session->transfer(p, s));
                    df.push_back(session->delay(p));
                    pf.push_back(session->poles(p));
                }
                session->flush();
                for (auto& f : tf) EXPECT_TRUE(resolves(f));
                for (auto& f : df) EXPECT_TRUE(resolves(f));
                for (auto& f : pf) EXPECT_TRUE(resolves(f));
                for (auto& f : tf) (void)got_value(std::move(f));
                for (auto& f : df) (void)got_value(std::move(f));
                for (auto& f : pf) (void)got_value(std::move(f));
            }
            // The point must actually have been exercised by this scenario —
            // read through the unified snapshot (the injector's hit counts
            // surface as fault.* counters), not the injector's internals.
            EXPECT_GT(obs::process_snapshot().counter("fault." + point), 0)
                << "fault point never fired — the scenario does not cover it";
        }

        // Invariant 3: fault cleared, the SAME service accepts and answers.
        // (A degraded session may need its key's poison to expire first.)
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        StudySession& healed = service.open(sys);
        EXPECT_FALSE(healed.degraded());
        for (const auto& p : corners) {
            auto tfut = healed.transfer(p, s);
            auto dfut = healed.delay(p);
            ASSERT_TRUE(resolves(tfut));
            ASSERT_TRUE(resolves(dfut));
            // Invariant 2 (post-fault): batched answers are bitwise the
            // serve-alone reference.
            expect_bit_identical(tfut.get(), healed.transfer_now(p, s));
            const DelayResult d = dfut.get();
            const DelayResult ref = healed.delay_now(p);
            EXPECT_EQ(d.delay.has_value(), ref.delay.has_value());
            if (d.delay) EXPECT_EQ(*d.delay, *ref.delay);
        }
    }
    FaultInjector::instance().clear();
}

TEST(FaultInjection, ReloadVerifyFaultFallsBackToRebuild) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    const std::string dir = fresh_disk_dir("varmor_fault_reload_verify");

    ModelCache cache(fault_cache_options(dir));
    StudyService warm(cache, service_options());
    (void)warm.open(sys);
    ASSERT_EQ(cache.stats().builds, 1);

    // Cold memory, warm disk: the reload path runs — and its verify fault
    // turns the artifact into a miss, repaired by rebuild, not a crash.
    cache.evict_memory();
    {
        ScopedFault fault("model_cache.reload_verify",
                          FaultInjector::fail("verify blew up"));
        StudyService service(cache, service_options());
        StudySession& session = service.open(sys);
        EXPECT_FALSE(session.degraded());
        EXPECT_GT(obs::process_snapshot().counter("fault.model_cache.reload_verify"),
                  0);
        EXPECT_EQ(cache.stats().builds, 2);  // rebuilt, not served corrupt
    }
    FaultInjector::instance().clear();
}

// ---------------------------------------------------------------------------
// Invariant 2 in the presence of an ACTIVE fault: target exactly one corner
// of a coalesced batch; its batchmates' answers must be bitwise serve-alone,
// produced by the same batch (no re-runs).
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayCornerFaultIsolatesOneQueryWithoutRerun) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCache cache;
    StudyService service(cache, service_options());
    StudySession& session = service.open(sys);

    const std::vector<std::vector<double>> corners{
        {0.11, 0.0}, {0.22, -0.05}, {0.33, 0.12}, {0.44, -0.02}};
    const std::size_t bad = 1;

    // Serve-alone references, computed before the fault is armed.
    std::vector<DelayResult> ref;
    for (const auto& p : corners) ref.push_back(session.delay_now(p));

    const long long hits_before =
        obs::process_snapshot().counter("fault.transient.corner");
    {
        ScopedFault fault("transient.corner",
                          FaultInjector::fail_detail(
                              std::to_string(corners[bad][0]), "bad corner"));
        std::future<void> plugged;
        HeldFlusher hold;
        plugged = plug(session);
        ASSERT_TRUE(hold.held());
        std::vector<Future<DelayResult>> futures;
        for (const auto& p : corners) futures.push_back(session.delay(p));
        hold.release();
        plugged.get();
        session.flush();
        EXPECT_EQ(session.batcher().telemetry().gauge("batcher.largest_batch"),
                  static_cast<long long>(corners.size()));  // one batch

        for (std::size_t i = 0; i < corners.size(); ++i) {
            ASSERT_TRUE(resolves(futures[i]));
            if (i == bad) {
                EXPECT_THROW(futures[i].get(), FaultInjected);
            } else {
                const DelayResult d = futures[i].get();
                EXPECT_EQ(d.delay.has_value(), ref[i].delay.has_value());
                if (d.delay) EXPECT_EQ(*d.delay, *ref[i].delay);
            }
        }
        // No serve-alone re-runs: each corner reached the engine exactly
        // once (the old fallback re-ran every healthy corner individually,
        // which would double these hits).
        EXPECT_EQ(obs::process_snapshot().counter("fault.transient.corner") -
                      hits_before,
                  static_cast<long long>(corners.size()));
    }
    FaultInjector::instance().clear();
}

TEST(FaultInjection, StampFaultFailsOnePointGroupOnly) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCache cache;
    StudyService service(cache, service_options());
    StudySession& session = service.open(sys);

    const std::vector<double> good{0.07, -0.03}, bad{0.21, 0.04};
    const cplx s(0.0, util::two_pi_f(0.05));
    const ZMatrix ref = session.transfer_now(good, s);
    const std::vector<cplx> ref_poles = session.poles_now(good);

    {
        ScopedFault fault("query_batcher.stamp",
                          FaultInjector::fail_detail(std::to_string(bad[0]),
                                                     "bad stamp"));
        std::future<void> plugged;
        HeldFlusher hold;
        plugged = plug(session);
        ASSERT_TRUE(hold.held());
        auto fg1 = session.transfer(good, s);
        auto fb = session.transfer(bad, s);
        auto pg = session.poles(good);
        auto pb = session.poles(bad);
        auto fg2 = session.transfer(good, s);
        hold.release();
        plugged.get();
        session.flush();
        EXPECT_EQ(session.batcher().telemetry().gauge("batcher.largest_batch"), 5);
        ASSERT_TRUE(resolves(fg1));
        ASSERT_TRUE(resolves(fb));
        ASSERT_TRUE(resolves(fg2));
        ASSERT_TRUE(resolves(pg));
        ASSERT_TRUE(resolves(pb));
        expect_bit_identical(fg1.get(), ref);
        expect_bit_identical(fg2.get(), ref);
        EXPECT_THROW(fb.get(), FaultInjected);
        // The pole lane shares the stamp step, so the same point fails there.
        const std::vector<cplx> poles = pg.get();
        ASSERT_EQ(poles.size(), ref_poles.size());
        for (std::size_t k = 0; k < poles.size(); ++k) EXPECT_EQ(poles[k], ref_poles[k]);
        EXPECT_THROW(pb.get(), FaultInjected);
    }
    FaultInjector::instance().clear();
}

// ---------------------------------------------------------------------------
// The failure taxonomy: overload, deadlines, closed — always failed futures.
// ---------------------------------------------------------------------------

TEST(FaultInjection, OverloadShedsWithFailedFutureNeverThrow) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCache cache;
    StudyServiceOptions opts = service_options();
    opts.batcher.max_pending = 1;
    StudyService service(cache, opts);
    StudySession& session = service.open(sys);

    // Hold the flusher inside a batch so the bounded queue actually fills:
    // the plug (a flush marker, exempt from the bound) waits at the gate, the
    // first submit takes the one queue slot and the other 15 are shed.
    std::future<void> plugged;
    HeldFlusher hold;
    plugged = plug(session);
    ASSERT_TRUE(hold.held());
    const cplx s(0.0, 1.0);
    std::vector<Future<ZMatrix>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(session.transfer({0.01 * i, 0.0}, s));  // must not throw
    hold.release();
    plugged.get();

    int ok = 0, shed = 0, other = 0;
    for (auto& f : futures) {
        ASSERT_TRUE(resolves(f));
        try {
            (void)f.get();
            ++ok;
        } catch (const OverloadError&) {
            ++shed;
        } catch (const std::exception&) {
            ++other;
        }
    }
    EXPECT_EQ(ok, 1) << "the admitted query must still be served";
    EXPECT_EQ(shed, 15) << "a 1-deep queue under a held flusher must shed";
    EXPECT_EQ(other, 0);
    EXPECT_EQ(session.batcher().telemetry().counter("batcher.shed"), shed);
    FaultInjector::instance().clear();
}

TEST(FaultInjection, ExpiredDeadlineCompletesWithDeadlineExceeded) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCache cache;
    StudyService service(cache, service_options());
    StudySession& session = service.open(sys);
    const cplx s(0.0, 1.0);

    // Already expired at submission: failed immediately, never enqueued.
    auto pre = session.transfer({0.0, 0.0}, s, util::Deadline::after_ms(-1.0));
    ASSERT_TRUE(resolves(pre));
    EXPECT_THROW(pre.get(), DeadlineExceeded);

    // Expires while queued behind a held flusher: completed at collection.
    {
        HeldFlusher hold;
        auto first = session.transfer({0.0, 0.0}, s);  // occupies the flusher
        ASSERT_TRUE(hold.held());
        auto doomed =
            session.transfer({0.1, 0.0}, s, util::Deadline::after_ms(5.0));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        hold.release();
        ASSERT_TRUE(resolves(first));
        ASSERT_TRUE(resolves(doomed));
        EXPECT_TRUE(got_value(std::move(first)));
        EXPECT_THROW(doomed.get(), DeadlineExceeded);
    }
    EXPECT_EQ(session.batcher().telemetry().counter("batcher.expired"), 2);
    FaultInjector::instance().clear();
}

TEST(FaultInjection, SubmitAfterCloseFailsWithServiceClosed) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCache cache;
    StudyService service(cache, service_options());
    StudySession& session = service.open(sys);

    // A standalone batcher on the session's engine: close() it, then submit.
    QueryBatcher batcher(session.study().rom_engine(), nullptr, {}, 0.0, 0,
                         service_options().batcher);
    auto before = batcher.submit_transfer({0.0, 0.0}, cplx(0.0, 1.0));
    batcher.close();
    ASSERT_TRUE(resolves(before));
    EXPECT_TRUE(got_value(std::move(before)));  // drained before close returned

    auto after = batcher.submit_transfer({0.0, 0.0}, cplx(0.0, 1.0));
    ASSERT_TRUE(resolves(after));
    EXPECT_THROW(after.get(), ServiceClosed);
    EXPECT_EQ(batcher.telemetry().counter("batcher.rejected_closed"), 1);
    batcher.flush();  // no-op after close, must not hang
    batcher.close();  // idempotent
}

// ---------------------------------------------------------------------------
// Poisoned keys, degraded sessions, healing.
// ---------------------------------------------------------------------------

TEST(FaultInjection, RepeatedBuildFailurePoisonsKeyThenHeals) {
    const circuit::ParametricSystem sys = test_system();
    const mor::LowRankPmorOptions ropts = [] {
        mor::LowRankPmorOptions o;
        o.s_order = 3;
        o.param_order = 2;
        return o;
    }();
    const CacheKey key = cache_key(sys, ropts);

    ModelCacheOptions copts;
    copts.poison_after = 2;
    copts.poison_ttl_ms = 60.0;
    ModelCache cache(copts);

    std::atomic<int> builder_runs{0};
    auto failing = [&]() -> mor::ReducedModel {
        ++builder_runs;
        throw varmor::Error("reduction exploded");
    };

    EXPECT_THROW((void)cache.get_or_build(key, failing), varmor::Error);
    EXPECT_FALSE(cache.poisoned(key));  // one failure: not yet poisoned
    EXPECT_THROW((void)cache.get_or_build(key, failing), varmor::Error);
    EXPECT_TRUE(cache.poisoned(key));  // second consecutive failure: poisoned
    EXPECT_EQ(builder_runs.load(), 2);

    // Poisoned: fails FAST with the stored error, builder not re-run.
    EXPECT_THROW((void)cache.get_or_build(key, failing), varmor::Error);
    EXPECT_EQ(builder_runs.load(), 2);
    EXPECT_EQ(cache.stats().poison_hits, 1);
    EXPECT_EQ(cache.stats().poisonings, 1);

    // Poison expires; a now-working builder heals the key.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_FALSE(cache.poisoned(key));
    const ModelCache::ModelPtr model = cache.get_or_build(
        key, [&] { return mor::lowrank_pmor(sys, ropts).model; });
    ASSERT_TRUE(model != nullptr);
    EXPECT_FALSE(cache.poisoned(key));
    EXPECT_EQ(cache.stats().builds, 1);
}

TEST(FaultInjection, DegradedSessionServesExactFullPencilAnswersAndHeals) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCache cache(fault_cache_options(fresh_disk_dir("varmor_fault_degraded")));
    StudyService service(cache, service_options());

    StudySession* degraded = nullptr;
    {
        ScopedFault fault("model_cache.build", FaultInjector::fail("no model"));
        degraded = &service.open(sys);
        ASSERT_TRUE(degraded->degraded());
        EXPECT_TRUE(cache.poisoned(degraded->key()));

        // While poisoned, reopening returns the SAME degraded session — no
        // rebuild storm.
        EXPECT_EQ(&service.open(sys), degraded);

        // Degraded serving is exact full-pencil evaluation: the batched path
        // and the serve-alone path agree bitwise, and delays are untouched
        // (they were full-system all along).
        const std::vector<double> p{0.1, -0.05};
        const cplx s(0.0, util::two_pi_f(0.05));
        auto tfut = degraded->transfer(p, s);
        auto dfut = degraded->delay(p);
        auto pfut = degraded->poles(p);
        ASSERT_TRUE(resolves(tfut));
        ASSERT_TRUE(resolves(dfut));
        ASSERT_TRUE(resolves(pfut));
        expect_bit_identical(tfut.get(), degraded->transfer_now(p, s));
        const DelayResult d = dfut.get();
        const DelayResult ref = degraded->delay_now(p);
        EXPECT_EQ(d.delay.has_value(), ref.delay.has_value());
        if (d.delay) EXPECT_EQ(*d.delay, *ref.delay);
        const auto poles = pfut.get();
        const auto ref_poles = degraded->poles_now(p);
        ASSERT_EQ(poles.size(), ref_poles.size());
        for (std::size_t k = 0; k < poles.size(); ++k)
            EXPECT_EQ(poles[k], ref_poles[k]);
    }

    // Fault gone + poison expired: reopening builds the real model and swaps
    // in a full session; the old reference keeps working (retired, not
    // destroyed).
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    StudySession& healed = service.open(sys);
    EXPECT_FALSE(healed.degraded());
    EXPECT_NE(&healed, degraded);
    EXPECT_EQ(cache.stats().builds, 1);
    auto old_fut = degraded->transfer({0.0, 0.0}, cplx(0.0, 1.0));
    ASSERT_TRUE(resolves(old_fut));
    EXPECT_TRUE(got_value(std::move(old_fut)));
    service.flush_all();  // covers retired sessions too
    FaultInjector::instance().clear();
}

TEST(FaultInjection, WedgedBuildWaiterHonorsDeadline) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    const mor::LowRankPmorOptions ropts = [] {
        mor::LowRankPmorOptions o;
        o.s_order = 3;
        o.param_order = 2;
        return o;
    }();
    const CacheKey key = cache_key(sys, ropts);
    ModelCache cache;

    ScopedFault wedge("model_cache.build", FaultInjector::sleep_for(150.0));
    std::promise<void> started;
    std::thread winner([&] {
        started.set_value();
        (void)cache.get_or_build(key,
                                 [&] { return mor::lowrank_pmor(sys, ropts).model; });
    });
    started.get_future().get();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it wedge

    // The waiter gives up with DeadlineExceeded; the winner still completes
    // and the key is served afterwards with zero extra builds.
    EXPECT_THROW((void)cache.get_or_build(
                     key, [&] { return mor::lowrank_pmor(sys, ropts).model; },
                     util::Deadline::after_ms(10.0)),
                 util::DeadlineExceeded);
    winner.join();
    EXPECT_EQ(cache.stats().builds, 1);
    EXPECT_EQ(cache.memory_size(), 1);
    FaultInjector::instance().clear();
}

TEST(FaultInjection, TransientDiskWriteFaultIsAbsorbedByRetry) {
    const circuit::ParametricSystem sys = test_system();
    FaultInjector::instance().clear();
    ModelCacheOptions copts =
        fault_cache_options(fresh_disk_dir("varmor_fault_retry"));
    ModelCache cache(copts);
    StudyService service(cache, service_options());

    {
        ScopedFault flaky("model_cache.disk_write",
                          FaultInjector::fail_first(1, "EIO once"));
        StudySession& session = service.open(sys);
        EXPECT_FALSE(session.degraded());
    }
    // The retry absorbed the transient failure: artifact on disk, counted.
    const obs::Snapshot ds = cache.telemetry();
    EXPECT_EQ(ds.counter("disk_store.stores"), 1);
    EXPECT_GE(ds.counter("disk_store.retries"), 1);
    EXPECT_EQ(ds.counter("disk_store.store_failures"), 0);
    EXPECT_TRUE(std::filesystem::exists(
        cache.disk_path(cache_key(sys, service.options().reduction))));
    FaultInjector::instance().clear();
}

}  // namespace
}  // namespace varmor::service
