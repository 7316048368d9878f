// service::StudyService — the serving subsystem end to end. Pinned here:
// a mixed workload (transfer sweeps + transient delays + pole queries) from
// 8 concurrent simulated clients is bitwise identical to unbatched single-
// client serving at any execution thread count; a warm ModelCache hit opens
// a session with ZERO reduction work (builds counter flat, in-process and
// through the disk tier); delay semantics agree with the standalone
// transient_study() experiment; flush_all() waits for the backlogs without
// holding the service lock.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "analysis/transient_batch.h"
#include "held_flusher.h"
#include "mor/model_io.h"
#include "mor_test_utils.h"
#include "service/study_service.h"
#include "util/constants.h"

namespace varmor::service {
namespace {

using la::cplx;
using la::ZMatrix;
using varmor::testing::small_parametric_rc;

circuit::ParametricSystem test_system() { return small_parametric_rc(36, 2, 55); }

StudyServiceOptions service_options(int exec_threads) {
    StudyServiceOptions opts;
    opts.reduction.s_order = 3;
    opts.reduction.param_order = 2;
    opts.transient.transient.t_stop = 10.0;
    opts.transient.transient.dt = 0.5;
    opts.batcher.threads = exec_threads;
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

TEST(StudyService, MixedEightClientWorkloadBitIdenticalToUnbatched) {
    const circuit::ParametricSystem sys = test_system();
    const int kClients = 8;
    const int kFreqs = 5;
    const auto s_of = [](int j) { return cplx(0.0, util::two_pi_f(0.02 + 0.03 * j)); };
    const auto corner_of = [](int c) {
        return std::vector<double>{0.04 * c - 0.15, -0.03 * c + 0.1};
    };

    for (int exec_threads : {1, 0, 2}) {
        ModelCache cache;
        StudyService service(cache, service_options(exec_threads));
        StudySession& session = service.open(sys);

        // Unbatched single-client references, computed up front.
        std::vector<std::vector<ZMatrix>> ref_transfer(kClients);
        std::vector<DelayResult> ref_delay;
        std::vector<std::vector<cplx>> ref_poles;
        for (int c = 0; c < kClients; ++c) {
            for (int j = 0; j < kFreqs; ++j)
                ref_transfer[static_cast<std::size_t>(c)].push_back(
                    session.transfer_now(corner_of(c), s_of(j)));
            ref_delay.push_back(session.delay_now(corner_of(c)));
            ref_poles.push_back(session.poles_now(corner_of(c)));
        }

        // The mixed workload: every client submits a small transfer sweep,
        // one delay query, and one pole query, concurrently.
        std::vector<std::vector<Future<ZMatrix>>> tf(kClients);
        std::vector<Future<DelayResult>> df(kClients);
        std::vector<Future<std::vector<cplx>>> pf(kClients);
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
                                     ref_transfer[c][static_cast<std::size_t>(j)]);
            const DelayResult d = df[static_cast<std::size_t>(c)].get();
            EXPECT_EQ(d.delay.has_value(), ref_delay[static_cast<std::size_t>(c)].delay.has_value());
            if (d.delay) EXPECT_EQ(*d.delay, *ref_delay[static_cast<std::size_t>(c)].delay);
            EXPECT_EQ(d.level, session.delay_level());
            const auto poles = pf[static_cast<std::size_t>(c)].get();
            const auto& rp = ref_poles[static_cast<std::size_t>(c)];
            ASSERT_EQ(poles.size(), rp.size());
            for (std::size_t k = 0; k < poles.size(); ++k) {
                EXPECT_EQ(poles[k].real(), rp[k].real());
                EXPECT_EQ(poles[k].imag(), rp[k].imag());
            }
        }
        EXPECT_EQ(session.batcher().telemetry().counter("batcher.queries"),
                  kClients * (kFreqs + 2));
    }
}

TEST(StudyService, WarmCacheHitOpensSessionWithZeroReductionWork) {
    const circuit::ParametricSystem sys = test_system();
    ModelCache cache;

    StudyService first(cache, service_options(1));
    StudySession& s1 = first.open(sys);
    EXPECT_EQ(cache.stats().builds, 1);

    // Same service: open() of the same system returns the SAME session.
    EXPECT_EQ(&first.open(sys), &s1);
    EXPECT_EQ(first.num_sessions(), 1);
    EXPECT_EQ(cache.stats().builds, 1);

    // A second service on the shared cache: new session, ZERO reduction work
    // (the cached model is reused), and bitwise the same served model.
    StudyService second(cache, service_options(1));
    StudySession& s2 = second.open(sys);
    EXPECT_EQ(cache.stats().builds, 1);
    EXPECT_GE(cache.stats().memory_hits, 1);
    EXPECT_EQ(mor::model_content_hash(s1.study().cached_rom()),
              mor::model_content_hash(s2.study().cached_rom()));

    // And both sessions answer identically.
    const std::vector<double> p{0.1, -0.05};
    const cplx s(0.0, 1.0);
    expect_bit_identical(s1.transfer_now(p, s), s2.transfer_now(p, s));
    EXPECT_EQ(s1.delay_level(), s2.delay_level());
}

TEST(StudyService, DiskTierServesAcrossServiceInstances) {
    const circuit::ParametricSystem sys = test_system();
    ModelCacheOptions copts;
    copts.disk_dir = ::testing::TempDir() + "/varmor_service_disk";
    // The disk tier persists across processes by design; start this run cold.
    std::filesystem::remove_all(copts.disk_dir);
    ModelCache cache(copts);

    std::uint64_t hash1 = 0;
    {
        StudyService service(cache, service_options(1));
        hash1 = mor::model_content_hash(service.open(sys).study().cached_rom());
        EXPECT_EQ(cache.stats().builds, 1);
    }
    // Simulate a cold process: memory tier gone, disk tier warm.
    cache.evict_memory();
    {
        StudyService service(cache, service_options(1));
        StudySession& session = service.open(sys);
        EXPECT_EQ(cache.stats().builds, 1);    // no reduction re-run
        EXPECT_GE(cache.stats().disk_hits, 1); // served from disk
        EXPECT_EQ(mor::model_content_hash(session.study().cached_rom()), hash1);
    }
}

TEST(StudyService, ConcurrentOpensOfOneSystemCoalesceOntoOneSession) {
    const circuit::ParametricSystem sys = test_system();
    ModelCache cache;
    StudyService service(cache, service_options(1));

    std::vector<StudySession*> sessions(6, nullptr);
    std::vector<std::thread> openers;
    for (std::size_t t = 0; t < sessions.size(); ++t)
        openers.emplace_back([&, t] { sessions[t] = &service.open(sys); });
    for (std::thread& th : openers) th.join();

    EXPECT_EQ(service.num_sessions(), 1);
    EXPECT_EQ(cache.stats().builds, 1);
    for (StudySession* s : sessions) EXPECT_EQ(s, sessions[0]);
}

TEST(StudyService, DelaySemanticsMatchStandaloneTransientStudy) {
    const circuit::ParametricSystem sys = test_system();
    const std::vector<std::vector<double>> corners{
        {0.0, 0.0}, {0.2, -0.1}, {-0.15, 0.12}, {0.1, 0.1}};

    const StudyServiceOptions opts = service_options(1);
    analysis::TransientStudyOptions sopts = opts.transient;
    const analysis::TransientStudy study = analysis::transient_study(sys, corners, sopts);

    ModelCache cache;
    StudyService service(cache, opts);
    StudySession& session = service.open(sys);
    EXPECT_EQ(session.delay_level(), study.level);
    for (std::size_t i = 0; i < corners.size(); ++i) {
        const DelayResult d = session.delay_now(corners[i]);
        EXPECT_EQ(d.delay.has_value(), study.delays[i].has_value());
        if (d.delay) EXPECT_EQ(*d.delay, *study.delays[i]);
    }
}

// flush_all() waits for every session's backlog, but not under the service
// lock: a num_sessions() on another thread answers while the flush waits.
TEST(StudyService, FlushAllDoesNotHoldTheServiceLock) {
    const circuit::ParametricSystem sys = test_system();
    ModelCache cache;
    StudyService service(cache, service_options(1));
    StudySession& session = service.open(sys);

    std::future<void> flushing;
    std::future<int> counting;
    varmor::testing::HeldFlusher hold;
    auto query = session.transfer({0.1, -0.05}, cplx(0.0, 1.0));
    ASSERT_TRUE(hold.held());  // the query's batch waits at the flush point
    flushing = std::async(std::launch::async, [&] { service.flush_all(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    counting = std::async(std::launch::async, [&] { return service.num_sessions(); });
    const bool answered =
        counting.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    hold.release();
    EXPECT_TRUE(answered) << "num_sessions() waited for flush_all()";
    EXPECT_EQ(counting.get(), 1);
    flushing.get();
    expect_bit_identical(query.get(), session.transfer_now({0.1, -0.05}, cplx(0.0, 1.0)));
}

}  // namespace
}  // namespace varmor::service
