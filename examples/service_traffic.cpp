// ROM serving subsystem end to end: a StudyService fed mixed query traffic
// from many concurrent "clients" (threads standing in for timing/yield tools
// hammering one interconnect model). Shows the three serving layers working
// together:
//
//   - ModelCache: the first open() reduces the net once (and persists it);
//     a second service instance opens the same system with ZERO reduction
//     work — the content-addressed warm hit.
//   - QueryBatcher: concurrent transfer/delay/pole queries coalesce into
//     engine batches (each flush takes whatever has queued); results are
//     bitwise identical to serving each query alone.
//   - StudySession tickets: clients block only on their own answers (the
//     slab-backed service::Future — recycled slots, no per-query allocation).
//
// Build & run:  cmake --build build && ./build/examples/service_traffic

#include <cstdio>
#include <thread>
#include <vector>

#include "circuit/generators.h"
#include "circuit/mna.h"
#include "la/ops.h"
#include "service/study_service.h"
#include "util/constants.h"
#include "util/timer.h"

using namespace varmor;
using la::cplx;

int main() {
    std::printf("== service_traffic: many clients, one warm ROM ==\n\n");

    circuit::RandomRcOptions net_opts;
    net_opts.unknowns = 400;
    const circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(net_opts));

    service::ModelCacheOptions cache_opts;
    cache_opts.disk_dir = "service_traffic_cache";  // survives this process
    service::ModelCache cache(cache_opts);

    service::StudyServiceOptions opts;
    opts.reduction.s_order = 4;
    opts.reduction.param_order = 3;
    opts.transient.transient.t_stop = 4e-9;
    opts.transient.transient.dt = 2e-11;
    service::StudyService service(cache, opts);

    util::Timer t;
    service::StudySession& session = service.open(sys);
    std::printf("first open(): %.1f ms (reductions performed: %lld)\n",
                t.milliseconds(), cache.stats().builds);
    std::printf("served model: q = %d, cache key %s\n\n",
                session.study().cached_rom().size(), session.key().hex().c_str());

    // ---- mixed traffic: 8 clients, each a different workload mix. --------
    const int kClients = 8;
    const auto freqs = analysis::log_frequencies(1e6, 1e10, 12);
    t.reset();
    std::vector<std::thread> clients;
    std::vector<int> answered(kClients, 0);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            const std::vector<double> corner{0.05 * c - 0.2, 0.1 - 0.03 * c};
            std::vector<service::Future<la::ZMatrix>> tf;
            for (double f : freqs)
                tf.push_back(session.transfer(corner, cplx(0.0, util::two_pi_f(f))));
            service::Future<service::DelayResult> df = session.delay(corner);
            service::Future<std::vector<cplx>> pf = session.poles(corner);
            for (auto& f : tf) {
                (void)f.get();
                ++answered[static_cast<std::size_t>(c)];
            }
            const service::DelayResult d = df.get();
            ++answered[static_cast<std::size_t>(c)];
            (void)pf.get();
            ++answered[static_cast<std::size_t>(c)];
            if (c == 0 && d.delay)
                std::printf("client 0: nominal-ish corner delay = %.3e s (level %.3e)\n",
                            *d.delay, d.level);
        });
    for (std::thread& th : clients) th.join();
    const double ms_traffic = t.milliseconds();

    int total = 0;
    for (int a : answered) total += a;
    const obs::Snapshot qs = session.batcher().telemetry();
    std::printf("\n%d queries answered in %.1f ms (%.0f queries/sec)\n", total,
                ms_traffic, 1e3 * total / ms_traffic);
    std::printf("batches: %lld (largest %lld); transfer stamps: %lld for %lld queries\n",
                qs.counter("batcher.batches"), qs.gauge("batcher.largest_batch"),
                qs.counter("batcher.transfer_groups"), qs.counter("batcher.transfer_queries"));

    // ---- a second service on the same cache: the warm-hit path. ----------
    t.reset();
    service::StudyService second(cache, opts);
    service::StudySession& warm = second.open(sys);
    std::printf("\nsecond service open(): %.1f ms, reductions still %lld "
                "(memory hits %lld, disk hits %lld)\n",
                t.milliseconds(), cache.stats().builds, cache.stats().memory_hits,
                cache.stats().disk_hits);

    // Spot-check: warm session answers bitwise what the first one does.
    const std::vector<double> p{0.1, -0.1};
    const cplx s(0.0, util::two_pi_f(1e9));
    const double dev = la::norm_max(warm.transfer_now(p, s) - session.transfer_now(p, s));
    std::printf("warm-vs-first serving deviation: %.1e (must be exactly 0)\n", dev);
    return dev == 0.0 ? 0 : 1;
}
