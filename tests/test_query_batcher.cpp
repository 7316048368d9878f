// service::QueryBatcher — coalescing must be invisible in the results: a
// batch assembled from whatever traffic happened to interleave is BIT-
// IDENTICAL to serving every query alone, at any execution thread count.
// Also pinned: the work-conserving flush policy (a flush takes what has
// queued, up to kMaxBatch, and never waits for more), flush() draining,
// per-query error isolation, and each lane's trace shape. Tests that claim
// a batch's composition build it behind a testing::HeldFlusher.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/transient_batch.h"
#include "held_flusher.h"
#include "mor/lowrank_pmor.h"
#include "mor/rom_eval.h"
#include "mor_test_utils.h"
#include "obs/trace.h"
#include "service/query_batcher.h"
#include "util/constants.h"

namespace varmor::service {
namespace {

using la::cplx;
using la::ZMatrix;
using varmor::testing::HeldFlusher;
using varmor::testing::plug;
using varmor::testing::small_parametric_rc;

struct Fixture {
    circuit::ParametricSystem sys;
    mor::ReducedModel model;
    mor::RomEvalEngine engine;
    analysis::TransientBatchRunner runner;
    analysis::InputFn input;
    double level;

    static analysis::TransientOptions transient_opts() {
        analysis::TransientOptions t;
        t.t_stop = 10.0;
        t.dt = 0.5;
        return t;
    }

    Fixture()
        : sys(small_parametric_rc(40, 2, 123)),
          model([this] {
              mor::LowRankPmorOptions o;
              o.s_order = 3;
              o.param_order = 2;
              return mor::lowrank_pmor(sys, o).model;
          }()),
          engine(model),
          runner(sys, transient_opts()),
          input(analysis::step_input(sys.num_ports(), 0, 1.0)) {
        // Fixed absolute threshold (half the nominal settled response of the
        // last port) — what a serving session derives once and reuses.
        const std::vector<double> p0(2, 0.0);
        const analysis::TransientResult nominal = runner.run(p0, input);
        level = 0.5 * nominal.ports.back().back();
    }

    int observe() const { return sys.num_ports() - 1; }

    // The "serve each query alone" references the batcher must match bitwise.
    ZMatrix transfer_alone(const std::vector<double>& p, cplx s) const {
        mor::RomEvalWorkspace ws;
        engine.stamp_parameters(p, ws);
        return engine.transfer(s, ws);
    }
    DelayResult delay_alone(const std::vector<double>& p) const {
        const analysis::TransientResult wave = runner.run(p, input);
        return DelayResult{analysis::crossing_time(wave, observe(), level), level};
    }
    std::vector<cplx> poles_alone(const std::vector<double>& p) const {
        mor::RomEvalWorkspace ws;
        engine.stamp_parameters(p, ws);
        return engine.poles(ws);
    }
};

void expect_bit_identical(const ZMatrix& a, const ZMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.raw().size(); ++k) {
        EXPECT_EQ(a.raw()[k].real(), b.raw()[k].real());
        EXPECT_EQ(a.raw()[k].imag(), b.raw()[k].imag());
    }
}

/// Deterministic per-client query arguments (client index seeds the values).
std::vector<double> corner_of(int client, int j) {
    return {0.05 * client - 0.2, 0.03 * j - 0.1};
}

TEST(QueryBatcher, ThreadedCoalescingBitIdenticalToServingAlone) {
    Fixture fx;
    const int kClients = 8;
    const int kTransfersPer = 6;
    const int kDelaysPer = 2;
    const int kPolesPer = 2;
    const auto s_of = [](int j) { return cplx(0.0, util::two_pi_f(0.01 + 0.05 * j)); };

    // Serial, the whole process-wide pool and a width capped at 2 — the
    // contract is "bit-identical at any thread count".
    for (int exec_threads : {1, 0, 2}) {
        QueryBatcherOptions opts;
        opts.threads = exec_threads;
        QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                             opts);

        // The clients' 80 queries queue behind a held plug, so the flushes
        // after release are full ones: kMaxBatch, then the rest.
        std::future<void> plugged;
        HeldFlusher hold;
        plugged = plug(batcher);
        ASSERT_TRUE(hold.held());
        std::vector<std::vector<Future<ZMatrix>>> tf(kClients);
        std::vector<std::vector<Future<DelayResult>>> df(kClients);
        std::vector<std::vector<Future<std::vector<cplx>>>> pf(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                // Interleave classes so batches mix heterogeneous queries;
                // transfer corners repeat across clients (c % 2) so grouping
                // has real coalescing opportunities.
                for (int j = 0; j < kTransfersPer; ++j) {
                    tf[c].push_back(batcher.submit_transfer(corner_of(c % 2, j), s_of(j)));
                    if (j < kDelaysPer) df[c].push_back(batcher.submit_delay(corner_of(c, j)));
                    if (j < kPolesPer) pf[c].push_back(batcher.submit_poles(corner_of(j, c)));
                }
            });
        for (std::thread& t : clients) t.join();
        hold.release();
        plugged.get();

        for (int c = 0; c < kClients; ++c) {
            for (int j = 0; j < kTransfersPer; ++j)
                expect_bit_identical(tf[c][static_cast<std::size_t>(j)].get(),
                                     fx.transfer_alone(corner_of(c % 2, j), s_of(j)));
            for (int j = 0; j < kDelaysPer; ++j) {
                const DelayResult got = df[c][static_cast<std::size_t>(j)].get();
                const DelayResult ref = fx.delay_alone(corner_of(c, j));
                EXPECT_EQ(got.delay.has_value(), ref.delay.has_value());
                if (got.delay) EXPECT_EQ(*got.delay, *ref.delay);
                EXPECT_EQ(got.level, ref.level);
            }
            for (int j = 0; j < kPolesPer; ++j) {
                const auto got = pf[c][static_cast<std::size_t>(j)].get();
                const auto ref = fx.poles_alone(corner_of(j, c));
                ASSERT_EQ(got.size(), ref.size());
                for (std::size_t k = 0; k < got.size(); ++k) {
                    EXPECT_EQ(got[k].real(), ref[k].real());
                    EXPECT_EQ(got[k].imag(), ref[k].imag());
                }
            }
        }

        const obs::Snapshot stats = batcher.telemetry();
        EXPECT_EQ(stats.counter("batcher.queries"),
                  kClients * (kTransfersPer + kDelaysPer + kPolesPer));
        EXPECT_EQ(stats.gauge("batcher.largest_batch"), QueryBatcher::kMaxBatch);
        // Clients share corner_of(c, j) points across transfer queries, so
        // grouping must have coalesced at least some stamps: each of the two
        // full flushes holds at most the 12 distinct transfer points.
        EXPECT_EQ(stats.counter("batcher.transfer_queries"), kClients * kTransfersPer);
        EXPECT_LT(stats.counter("batcher.transfer_groups"),
                  stats.counter("batcher.transfer_queries"));
    }
}

TEST(QueryBatcher, AnUndersizedBatchFlushesWithoutWaiting) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);

    // A lone query is a batch of one: nothing holds it for company.
    auto f = batcher.submit_transfer({0.1, -0.1}, cplx(0.0, 1.0));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    expect_bit_identical(f.get(), fx.transfer_alone({0.1, -0.1}, cplx(0.0, 1.0)));
    const obs::Snapshot stats = batcher.telemetry();
    EXPECT_EQ(stats.counter("batcher.batches"), 1);
    EXPECT_EQ(stats.gauge("batcher.largest_batch"), 1);
}

TEST(QueryBatcher, HeldBacklogFlushesAsOneBatch) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                         opts);

    std::future<void> plugged;
    HeldFlusher hold;
    plugged = plug(batcher);
    ASSERT_TRUE(hold.held());
    // Ten queries over all three lanes queue behind the plug.
    const cplx s(0.0, 1.0);
    std::vector<Future<ZMatrix>> tf;
    std::vector<Future<std::vector<cplx>>> pf;
    std::vector<Future<DelayResult>> df;
    for (int j = 0; j < 4; ++j) tf.push_back(batcher.submit_transfer(corner_of(0, j), s));
    for (int j = 0; j < 3; ++j) pf.push_back(batcher.submit_poles(corner_of(1, j)));
    for (int j = 0; j < 3; ++j) df.push_back(batcher.submit_delay(corner_of(2, j)));
    hold.release();
    plugged.get();
    batcher.flush();

    for (int j = 0; j < 4; ++j)
        expect_bit_identical(tf[static_cast<std::size_t>(j)].get(),
                             fx.transfer_alone(corner_of(0, j), s));
    for (auto& f : pf) (void)f.get();
    for (auto& f : df) (void)f.get();
    const obs::Snapshot stats = batcher.telemetry();
    EXPECT_EQ(stats.counter("batcher.queries"), 10);
    EXPECT_EQ(stats.gauge("batcher.largest_batch"), 10);
}

TEST(QueryBatcher, BacklogBeyondMaxBatchSplits) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);

    std::future<void> plugged;
    HeldFlusher hold;
    plugged = plug(batcher);
    ASSERT_TRUE(hold.held());
    const int n = QueryBatcher::kMaxBatch + 6;
    const auto p_of = [](int j) { return std::vector<double>{0.002 * j - 0.07, 0.0}; };
    const auto s_of = [](int j) { return cplx(0.0, 1.0 + 0.1 * j); };
    std::vector<Future<ZMatrix>> fs;
    for (int j = 0; j < n; ++j) fs.push_back(batcher.submit_transfer(p_of(j), s_of(j)));
    hold.release();
    plugged.get();

    for (int j = 0; j < n; ++j)
        expect_bit_identical(fs[static_cast<std::size_t>(j)].get(),
                             fx.transfer_alone(p_of(j), s_of(j)));
    const obs::Snapshot stats = batcher.telemetry();
    EXPECT_EQ(stats.counter("batcher.queries"), n);
    EXPECT_EQ(stats.gauge("batcher.largest_batch"), QueryBatcher::kMaxBatch);
    // The plug's empty batch, a full one and the rest.
    EXPECT_EQ(stats.counter("batcher.batches"), 3);
}

TEST(QueryBatcher, FlushDrainsEverythingSubmittedBefore) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                         opts);

    auto t = batcher.submit_transfer({0.1, 0.1}, cplx(0.0, 2.0));
    auto d = batcher.submit_delay({0.1, 0.1});
    batcher.flush();
    EXPECT_EQ(t.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(d.wait_for(std::chrono::seconds(0)), std::future_status::ready);

    // flush() on an idle batcher returns promptly.
    batcher.flush();
}

TEST(QueryBatcher, PerQueryErrorsDoNotPoisonTheBatch) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                         opts);

    std::future<void> plugged;
    HeldFlusher hold;
    plugged = plug(batcher);
    ASSERT_TRUE(hold.held());
    // Transfer lane: a wrong-arity query fails alone.
    auto good = batcher.submit_transfer({0.1, -0.1}, cplx(0.0, 1.0));
    auto bad = batcher.submit_transfer({0.1}, cplx(0.0, 1.0));  // wrong arity
    // Delay lane: a bad corner coalesced with a good one fails alone too
    // (the batch falls back to per-corner serving on failure).
    auto good_delay = batcher.submit_delay({0.1, -0.1});
    auto bad_delay = batcher.submit_delay({0.1, 0.2, 0.3});  // wrong arity
    // Pole lane likewise.
    auto good_poles = batcher.submit_poles({0.1, -0.1});
    auto bad_poles = batcher.submit_poles({});  // wrong arity
    hold.release();
    plugged.get();
    batcher.flush();
    EXPECT_EQ(batcher.telemetry().gauge("batcher.largest_batch"), 6);

    EXPECT_THROW(bad.get(), Error);
    expect_bit_identical(good.get(), fx.transfer_alone({0.1, -0.1}, cplx(0.0, 1.0)));
    EXPECT_THROW(bad_delay.get(), Error);
    const DelayResult got = good_delay.get();
    const DelayResult ref = fx.delay_alone({0.1, -0.1});
    EXPECT_EQ(got.delay.has_value(), ref.delay.has_value());
    if (got.delay) EXPECT_EQ(*got.delay, *ref.delay);
    EXPECT_THROW(bad_poles.get(), Error);
    EXPECT_EQ(good_poles.get().size(), fx.poles_alone({0.1, -0.1}).size());
}

// A delay lane whose one per-flush step, the forcing series, fails: every
// delay of the flush fails with that error, and the transfer and pole
// queries coalesced with them are untouched.
TEST(QueryBatcher, ForcingFailureFailsEveryDelayOfTheFlushOnly) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    const analysis::InputFn broken = [](double) -> la::Vector {
        throw Error("input blew up");
    };
    QueryBatcher batcher(fx.engine, &fx.runner, broken, fx.level, fx.observe(), opts);

    std::future<void> plugged;
    HeldFlusher hold;
    plugged = plug(batcher);
    ASSERT_TRUE(hold.held());
    const std::vector<double> p{0.1, -0.1}, q{-0.05, 0.2};
    const cplx s(0.0, 1.5);
    auto t1 = batcher.submit_transfer(p, s);
    auto d1 = batcher.submit_delay(p);
    auto poles = batcher.submit_poles(q);
    auto d2 = batcher.submit_delay(q);
    auto t2 = batcher.submit_transfer(q, s);
    hold.release();
    plugged.get();
    batcher.flush();
    EXPECT_EQ(batcher.telemetry().gauge("batcher.largest_batch"), 5);  // one flush

    for (Future<DelayResult>* d : {&d1, &d2}) {
        try {
            (void)d->get();
            ADD_FAILURE() << "a delay was answered without a forcing series";
        } catch (const Error& e) {
            EXPECT_STREQ(e.what(), "input blew up");
        }
    }
    expect_bit_identical(t1.get(), fx.transfer_alone(p, s));
    expect_bit_identical(t2.get(), fx.transfer_alone(q, s));
    const std::vector<cplx> got = poles.get();
    const std::vector<cplx> ref = fx.poles_alone(q);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].real(), ref[k].real());
        EXPECT_EQ(got[k].imag(), ref[k].imag());
    }
    EXPECT_EQ(batcher.telemetry().counter("batcher.flush_failures"), 0);
}

TEST(QueryBatcher, DelayForcingIsEvaluatedOnceAndAFailureIsRetried) {
    // The forcing series depends on the batcher's input only: the first
    // delay flush evaluates it and later flushes reuse it. A failed
    // evaluation fails that flush's delays and is not kept.
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 1;
    std::atomic<int> calls{0};
    const analysis::InputFn flaky = [&](double t) {
        if (calls++ == 0) throw Error("input not ready");
        return fx.input(t);
    };
    QueryBatcher batcher(fx.engine, &fx.runner, flaky, fx.level, fx.observe(), opts);

    const std::vector<double> p{0.1, -0.1};
    auto failed = batcher.submit_delay(p);
    batcher.flush();
    EXPECT_THROW((void)failed.get(), Error);

    auto first = batcher.submit_delay(p);
    batcher.flush();
    const int calls_after_first = calls.load();
    auto second = batcher.submit_delay(p);
    batcher.flush();
    EXPECT_EQ(calls.load(), calls_after_first);  // the third flush reused the series
    const DelayResult ref = fx.delay_alone(p);
    for (Future<DelayResult>* d : {&first, &second}) {
        const DelayResult got = d->get();
        ASSERT_EQ(got.delay.has_value(), ref.delay.has_value());
        if (ref.delay) EXPECT_EQ(*got.delay, *ref.delay);
        EXPECT_EQ(got.level, ref.level);
    }
}

std::vector<obs::Stage> stages_of(const obs::TraceRecord& record) {
    std::vector<obs::Stage> out;
    for (int i = 0; i < record.trace.num_spans; ++i)
        out.push_back(record.trace.spans[i].stage);
    return out;
}

/// The dumped traces grouped by lane name.
std::map<std::string, std::vector<obs::TraceRecord>> traces_by_lane() {
    std::map<std::string, std::vector<obs::TraceRecord>> out;
    for (const obs::TraceRecord& record : obs::TraceStore::global().dump())
        out[record.lane].push_back(record);
    return out;
}

// The span sequence each lane records. A stamp span exists only where the
// lane's policy prepares per point group (the ROM transfer and pole lanes);
// the delay lane and the degraded full-pencil lanes solve per query only,
// which is what keeps `query.stamp_ns` a ROM-stamp measurement.
TEST(QueryBatcher, EachLaneRecordsItsTraceShape) {
    Fixture fx;
    ASSERT_EQ(obs::enabled(), obs::kCompiledIn);  // tracing is on by default
    obs::TraceStore::global().clear();
    QueryBatcherOptions opts;
    opts.threads = 1;
    const std::vector<double> p{0.1, -0.1};
    const cplx s(0.0, 1.0);
    using obs::Stage;
    const std::vector<Stage> stamped{Stage::kQueueWait, Stage::kStamp, Stage::kSolve,
                                     Stage::kFulfil};
    const std::vector<Stage> unstamped{Stage::kQueueWait, Stage::kSolve, Stage::kFulfil};
    const auto expect_shape = [](const std::vector<obs::TraceRecord>& records,
                                 std::size_t n, const std::vector<Stage>& shape) {
        ASSERT_EQ(records.size(), n);
        for (const obs::TraceRecord& record : records) {
            EXPECT_TRUE(record.trace.ok);
            EXPECT_EQ(stages_of(record), shape);
        }
    };

    {
        QueryBatcher rom(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(), opts);
        auto t1 = rom.submit_transfer(p, s);
        auto t2 = rom.submit_transfer(p, s * 2.0);
        auto poles = rom.submit_poles(p);
        auto delay = rom.submit_delay(p);
        rom.flush();
        (void)t1.get();
        (void)t2.get();
        (void)poles.get();
        (void)delay.get();
    }
    auto lanes = traces_by_lane();
    if (!obs::kCompiledIn) {
        EXPECT_TRUE(lanes.empty());  // compiled out: nothing is ever traced
        return;
    }
    EXPECT_EQ(lanes.size(), 3u);
    expect_shape(lanes["transfer"], 2, stamped);
    expect_shape(lanes["pole"], 1, stamped);
    expect_shape(lanes["delay"], 1, unstamped);

    // Degraded: the full-pencil policy prepares nothing.
    obs::TraceStore::global().clear();
    {
        QueryFallbacks fallbacks;
        fallbacks.transfer = [&fx](const std::vector<double>& at, cplx sv) {
            return fx.transfer_alone(at, sv);
        };
        fallbacks.poles = [&fx](const std::vector<double>& at) {
            return fx.poles_alone(at);
        };
        QueryBatcher degraded(nullptr, fallbacks, nullptr, {}, 0.0, 0, opts);
        auto t = degraded.submit_transfer(p, s);
        auto poles = degraded.submit_poles(p);
        degraded.flush();
        (void)t.get();
        (void)poles.get();
    }
    lanes = traces_by_lane();
    EXPECT_EQ(lanes.size(), 2u);
    expect_shape(lanes["transfer"], 1, unstamped);
    expect_shape(lanes["pole"], 1, unstamped);

    // Expired in the queue (behind a held flusher): one failed queue-wait span.
    obs::TraceStore::global().clear();
    {
        QueryBatcher rom(fx.engine, nullptr, {}, 0.0, 0, opts);
        HeldFlusher hold;
        auto first = rom.submit_transfer(p, s);
        ASSERT_TRUE(hold.held());  // the first query waits at the flush point
        auto doomed = rom.submit_transfer(p, s, util::Deadline::after_ms(20.0));
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        hold.release();
        EXPECT_THROW(doomed.get(), DeadlineExceeded);
        (void)first.get();
    }
    lanes = traces_by_lane();
    ASSERT_EQ(lanes["transfer"].size(), 2u);
    int expired = 0;
    for (const obs::TraceRecord& record : lanes["transfer"]) {
        if (record.trace.ok) continue;
        ++expired;
        EXPECT_EQ(stages_of(record), std::vector<Stage>{Stage::kQueueWait});
    }
    EXPECT_EQ(expired, 1);
}

TEST(QueryBatcher, DelayWithoutRunnerIsRejected) {
    Fixture fx;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, {});
    EXPECT_THROW(batcher.submit_delay({0.0, 0.0}), Error);
}

}  // namespace
}  // namespace varmor::service
