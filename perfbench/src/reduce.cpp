// reduce: Algorithm 1 as a batch job. Every net is assembled, keyed, reduced
// cold through service::ModelCache::get_or_build (disk tier in a fresh
// directory) and persisted; then every model is reloaded through a fresh
// cache on the same directory. Single-threaded: no RomEvalEngine, batcher
// or pool, so this is the control for engine and serving changes.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "circuit/mna.h"
#include "inputs.h"
#include "mor/lowrank_pmor.h"
#include "mor/prima.h"
#include "service/model_cache.h"
#include "sparse/splu.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Reload passes per cold pass: a run has about six cycles, and the calm 5%
/// of its reload passes is about 18.
constexpr int kReloadPasses = 60;

struct Built {
    service::CacheKey key;
    service::ModelCache::ModelPtr model;
    long sparse_solves = 0;
};

/// Algorithm 1 with G0 factored by the benchmark and handed in through
/// LowRankPmorOptions::g0_factor (the result is the same model).
mor::ReducedModel build_model(const circuit::ParametricSystem& sys,
                              const mor::LowRankPmorOptions& opts, long& sparse_solves) {
    ScopedSpan span("mor.build");
    mor::LowRankPmorOptions o = opts;
    {
        ScopedSpan factor("sparse.factor");
        o.g0_factor = std::make_shared<const sparse::SparseLu>(sys.g0);
    }
    ScopedSpan lowrank("mor.lowrank");
    mor::LowRankPmorResult r = mor::lowrank_pmor(sys, o);
    sparse_solves = r.sparse_solves;
    return std::move(r.model);
}

/// One cold pass: assemble, key, reduce and persist every net.
std::vector<Built> cold_pass(const std::vector<Net>& nets, const std::string& dir,
                             const mor::LowRankPmorOptions& opts, long& builds) {
    service::ModelCacheOptions co;
    co.disk_dir = dir;
    co.memory_capacity = static_cast<int>(nets.size());
    service::ModelCache cache(co);
    std::vector<Built> out;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        ScopedSpan net_span("reduce.net", i + 1);
        circuit::ParametricSystem sys;
        {
            ScopedSpan s("circuit.assemble");
            sys = circuit::assemble_mna(nets[i].netlist);
        }
        Built b;
        {
            ScopedSpan s("service.cache_key");
            b.key = service::cache_key(sys, opts);
        }
        ScopedSpan s("service.get_or_build");
        b.model = cache.get_or_build(b.key, [&] { return build_model(sys, opts, b.sparse_solves); });
        out.push_back(std::move(b));
    }
    builds = cache.stats().builds;
    return out;
}

}  // namespace

void run_reduce(const Args& args, Report& report, Metrics& out) {
    Tracer& tracer = Tracer::global();
    const bool traced = tracer.on();
    const mor::LowRankPmorOptions opts = reduction_options();

    // ---- set-up: input generation plus one warm-up reduction. It takes
    // about 50 ms, inside one slowed or calm stretch of a shared host, so it
    // is repeated at the start of every cycle too, and its time is taken
    // from the calm set-ups like the timed operations'. --------------------
    std::vector<Net> nets;
    std::vector<double> setup_s;
    const auto set_up = [&] {
        tracer.enable(false);
        util::Timer t;
        nets = reduce_nets(args.seed);
        long solves = 0;
        build_model(circuit::assemble_mna(nets[6].netlist), opts, solves);
        setup_s.push_back(t.seconds());
    };
    for (int rep = 0; rep < kSetups; ++rep) set_up();
    std::printf("reduce: %zu nets, set-up %.3f s\n", nets.size(), median(setup_s));

    // ---- timed phase: cold pass, then reload passes, until time is up. ----
    std::vector<double> pass_s, traced_pass_s, reload_pass_ms;
    std::vector<Built> reference;
    long cold_builds = 0, reload_disk_hits = 0, reload_builds = 0;
    int traced_passes = 0;
    repeat_for(args.seconds, [&](int iteration) {
        if (iteration > 0) set_up();
        // A traced run alternates traced and untraced cycles; the difference
        // of their pass times is the tracing overhead.
        const bool trace_this = traced && iteration % 2 == 0;
        tracer.enable(trace_this);
        const std::string dir = args.work_dir + "/reduce-" + std::to_string(iteration);
        util::Timer t;
        std::vector<Built> built = cold_pass(nets, dir, opts, cold_builds);
        (trace_this ? traced_pass_s : pass_s).push_back(t.seconds());
        if (trace_this) ++traced_passes;
        report.op(cold_builds == static_cast<long>(nets.size()));

        for (int r = 0; r < kReloadPasses; ++r) {
            service::ModelCacheOptions co;
            co.disk_dir = dir;
            service::ModelCache fresh(co);
            double pass_ms = 0.0;  // the reloads only, not their checks
            for (std::size_t i = 0; i < built.size(); ++i) {
                util::Timer one;
                service::ModelCache::ModelPtr m;
                bool ok = true;
                try {
                    ScopedSpan s("service.reload", i + 1);
                    m = fresh.get_or_build(built[i].key, []() -> mor::ReducedModel {
                        throw Error("reload pass found no model on disk");
                    });
                } catch (const std::exception&) {
                    ok = false;
                }
                pass_ms += one.milliseconds();
                // The reloaded model is bitwise the one that was built.
                report.op(ok && m && same_model(*m, *built[i].model));
            }
            if (!trace_this) reload_pass_ms.push_back(pass_ms);
            reload_disk_hits = fresh.stats().disk_hits;
            reload_builds = fresh.stats().builds;
            if (reload_builds != 0 || reload_disk_hits != static_cast<long>(built.size()))
                report.fail_check("reload pass was not all disk hits");
        }
        // Every cold pass reduces the same inputs to the same models.
        if (reference.empty()) {
            reference = built;
        } else {
            for (std::size_t i = 0; i < built.size(); ++i)
                if (!same_model(*built[i].model, *reference[i].model))
                    report.fail_check("cold pass " + std::to_string(iteration) + " changed " +
                                      nets[i].name);
        }
        if (iteration > 0) fs::remove_all(args.work_dir + "/reduce-" + std::to_string(iteration - 1));
    });
    tracer.enable(false);

    // ---- accuracy (outside the timed phase). ------------------------------
    double err_max = 0.0;
    double order_sum = 0.0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const circuit::ParametricSystem sys = circuit::assemble_mna(nets[i].netlist);
        const mor::ReducedModel& rom = *reference[i].model;
        const double err =
            rom_error_max(sys, rom, check_corners(sys.num_params(), args.seed), check_freqs());
        std::printf("  %-16s n=%-6d params=%d ports=%d q=%-3d rom_err_max=%.3g\n",
                    nets[i].name.c_str(), sys.size(), sys.num_params(), sys.num_ports(),
                    rom.size(), err);
        err_max = std::max(err_max, err);
        order_sum += rom.size();
    }
    report.op(err_max <= kRomErrTolerance);
    if (err_max > kRomErrTolerance)
        std::printf("CHECK FAIL: rom_err_max %.3g > %.3g\n", err_max, kRomErrTolerance);

    if (!traced) {
        // Both timed operations are single-threaded. The latency unit is a
        // reload pass (all eight models): single reloads mix eight sizes, and
        // the median of that mixture falls in the gap between two of them.
        const Tail reload = tail(reload_pass_ms);
        const std::vector<double> calm = calm_samples(reload_pass_ms, 1);
        out["setup_s"] = median(calm_samples(setup_s, 1));
        out["pass_s"] = median(calm_samples(pass_s, 1));
        out["p50_ms"] = quantile(calm, 0.5);
        out["p90_ms"] = quantile(calm, 0.9);
        report.context("calm_reload_passes", static_cast<double>(calm.size()));
        report.context("p50_ms_all", reload.p50);
        report.context("p99_ms_all", quantile(reload_pass_ms, 0.99));
        report.context("rom_err_max", err_max);
        report.context("reduce.cold_passes", static_cast<double>(pass_s.size()));
        report.context("reduce.reload_passes", static_cast<double>(reload.samples));
        report.context("reduce.reload_tail_percentile", reload.percentile);
        return;
    }

    // ---- traced: per-layer metrics. ---------------------------------------
    // Unit prices measured on each net: one SparseLu::solve on G0's factor,
    // and nominal PRIMA on the same factor and s-order.
    double solve_weighted_us = 0.0, lowrank_ms_sum = 0.0, prima_ms_sum = 0.0;
    long solves = 0;
    double bytes = 0.0;
    const auto per_net_lowrank = tracer.durations_ms("mor.lowrank");
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const circuit::ParametricSystem sys = circuit::assemble_mna(nets[i].netlist);
        const sparse::SparseLu lu(sys.g0);
        util::Rng rng(args.seed + i);
        la::Vector rhs(sys.size());
        rhs.raw() = rng.uniform_vector(sys.size(), -1.0, 1.0);
        std::vector<double> us;
        for (int k = 0; k < 7; ++k) {
            util::Timer t;
            const la::Vector x = lu.solve(rhs);
            us.push_back(t.milliseconds() * 1e3);
        }
        solve_weighted_us += median(us) * static_cast<double>(reference[i].sparse_solves);
        solves += reference[i].sparse_solves;
        mor::PrimaOptions po;
        po.blocks = opts.s_order + 1;
        std::vector<double> prima_ms;
        for (int k = 0; k < 3; ++k) {
            util::Timer t;
            const la::Matrix v = mor::prima_basis(lu, sys.c0, sys.b, po);
            prima_ms.push_back(t.milliseconds());
        }
        prima_ms_sum += median(prima_ms);
        std::vector<double> lr;
        for (std::size_t k = i; k < per_net_lowrank.size(); k += nets.size())
            lr.push_back(per_net_lowrank[k]);
        lowrank_ms_sum += median(lr);
    }
    // The artifacts of the last cold pass are still on disk.
    {
        service::ModelCacheOptions co;
        const int last = static_cast<int>(pass_s.size() + traced_pass_s.size()) - 1;
        co.disk_dir = args.work_dir + "/reduce-" + std::to_string(last);
        service::ModelCache probe(co);
        for (const Built& b : reference) {
            std::error_code ec;
            const auto size = fs::file_size(probe.disk_path(b.key), ec);
            if (!ec) bytes += static_cast<double>(size);
        }
    }

    const auto totals = tracer.totals();
    const auto per_pass = [&](const char* name, bool self = false) {
        const auto it = totals.find(name);
        if (it == totals.end() || traced_passes == 0) return 0.0;
        return (self ? it->second.self_ms : it->second.total_ms) / traced_passes;
    };
    const double solve_us = solves ? solve_weighted_us / static_cast<double>(solves) : 0.0;
    const double lowrank_ms = per_pass("mor.lowrank");
    const double priced_solves_ms = solve_weighted_us / 1e3;
    out["circuit.assemble_ms"] = per_pass("circuit.assemble");
    out["service.cache_key_ms"] = per_pass("service.cache_key");
    out["sparse.factor_ms"] = per_pass("sparse.factor");
    out["sparse.solve_us"] = solve_us;
    out["mor.sparse_solves"] = static_cast<double>(solves);
    out["mor.lowrank_ms"] = lowrank_ms;
    out["mor.dense_ms"] = lowrank_ms - priced_solves_ms;
    out["mor.rom_order"] = order_sum / static_cast<double>(nets.size());
    out["mor.lowrank_over_prima"] = prima_ms_sum > 0.0 ? lowrank_ms_sum / prima_ms_sum : 0.0;
    out["service.persist_ms"] = per_pass("service.get_or_build", true);
    const auto reload_totals = totals.find("service.reload");
    out["service.reload_ms"] = reload_totals == totals.end()
                                   ? 0.0
                                   : reload_totals->second.total_ms /
                                         static_cast<double>(reload_totals->second.count);
    out["disk_store.bytes"] = bytes;
    out["model_cache.builds"] = static_cast<double>(cold_builds);
    out["model_cache.disk_hits"] = static_cast<double>(reload_disk_hits);
    out["reduce.pass_s"] = median(traced_pass_s);
    out["reduce.reload_s"] = median(reload_pass_ms) / 1e3;
    out["reduce.rom_err_max"] = err_max;
    out["bench.trace_overhead_pct"] = 100.0 * (median(traced_pass_s) / median(pass_s) - 1.0);

    print_attribution("reduce pass (factor + priced solves + dense remainder)",
                      1e3 * median(traced_pass_s),
                      {{"assemble", out["circuit.assemble_ms"]},
                       {"cache_key", out["service.cache_key_ms"]},
                       {"factor", out["sparse.factor_ms"]},
                       {"solves", priced_solves_ms},
                       {"dense", out["mor.dense_ms"]},
                       {"persist", out["service.persist_ms"]}},
                      "ms");
}

}  // namespace perfbench
