// study: the variability analysis of Figs. 3-6 at production scale on one
// warm model. The timed phase alternates a batch pass (a transfer grid, a
// pole-error study and a delay study through analysis::VariabilityStudy)
// with single-corner point studies. No reduction and no serving machinery,
// so this is the control for reduce and serve changes.

#include <cstdio>
#include <memory>

#include "analysis/poles.h"
#include "analysis/variability_study.h"
#include "circuit/mna.h"
#include "inputs.h"
#include "mor/rom_eval.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Point studies (one corner's transfer row) per iteration of the timed phase.
constexpr int kPointsPerIteration = 1000;
/// Point studies per chunk of calm_samples: a few milliseconds, so most
/// chunks fall wholly inside or outside a slowed stretch of the host.
constexpr std::size_t kPointChunk = 10;

using Grid = std::vector<std::vector<la::ZMatrix>>;

struct Batch {
    Grid grid;
    analysis::PoleErrorStudy poles;
    analysis::TransientStudy transient;
};

bool same_delays(const std::vector<std::optional<double>>& a,
                 const std::vector<std::optional<double>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].has_value() != b[i].has_value()) return false;
        if (a[i] && std::memcmp(&*a[i], &*b[i], sizeof(double)) != 0) return false;
    }
    return true;
}

bool same_grid(const Grid& a, const Grid& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size()) return false;
        for (std::size_t k = 0; k < a[i].size(); ++k)
            if (!same_bits(a[i][k], b[i][k])) return false;
    }
    return true;
}

bool same_pole_errors(const analysis::PoleErrorStudy& a, const analysis::PoleErrorStudy& b) {
    if (a.errors.size() != b.errors.size()) return false;
    for (std::size_t i = 0; i < a.errors.size(); ++i)
        if (!same_bits(a.errors[i], b.errors[i])) return false;
    return true;
}

Batch batch_pass(const analysis::VariabilityStudy& st, const StudyInputs& in, int threads) {
    Batch b;
    analysis::TransientStudyOptions topts = in.transient;
    topts.threads = threads;
    {
        ScopedSpan s("rom_eval.grid");
        b.grid = st.rom_engine().transfer_grid(in.grid_samples, in.s_points, threads);
    }
    {
        ScopedSpan s("analysis.pole_errors");
        b.poles = st.pole_errors(in.pole_samples, {}, threads);
    }
    {
        ScopedSpan s("analysis.transient");
        b.transient = st.transient(in.corners, topts);
    }
    return b;
}

/// Everything set-up builds: the system, the session facade and its ROM.
struct Session {
    circuit::ParametricSystem sys;
    std::unique_ptr<analysis::VariabilityStudy> study;
};

Session set_up(const StudyInputs& in) {
    Session s;
    s.sys = circuit::assemble_mna(in.net.netlist);
    s.study = std::make_unique<analysis::VariabilityStudy>(s.sys);
    s.study->rom(reduction_options());
    // Warm-up: the first iterations after start are several times slower.
    StudyInputs small = in;
    small.grid_samples.resize(128);
    small.pole_samples.resize(16);
    small.corners.resize(32);
    for (int rep = 0; rep < 2; ++rep) batch_pass(*s.study, small, 0);
    return s;
}

}  // namespace

void run_study(const Args& args, Report& report, Metrics& out) {
    Tracer& tracer = Tracer::global();
    const bool traced = tracer.on();
    tracer.enable(false);

    // ---- set-up. -----------------------------------------------------------
    StudyInputs in;
    Session session;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetups; ++rep) {
        util::Timer t;
        in = study_inputs(args.seed);
        session = set_up(in);
        setup_s.push_back(t.seconds());
    }
    const analysis::VariabilityStudy& st = *session.study;
    const mor::RomEvalEngine& engine = st.rom_engine();
    std::printf("study: n=%d q=%d, %zu x %zu grid, %zu pole samples, %zu corners; set-up %.3f s\n",
                session.sys.size(), engine.size(), in.grid_samples.size(), in.s_points.size(),
                in.pole_samples.size(), in.corners.size(), median(setup_s));

    // ---- timed phase. -------------------------------------------------------
    std::vector<double> pass_s, traced_pass_s, point_ms;
    Batch first;
    util::Rng rng(args.seed ^ 0x5bd1e995u);
    int traced_iterations = 0;
    obs::Registry::global().reset();
    util::ThreadPool::reset_process_counters();
    repeat_for(args.seconds, [&](int iteration) {
        const bool trace_this = traced && iteration % 2 == 0;
        tracer.enable(trace_this);
        if (trace_this) ++traced_iterations;
        util::Timer t;
        Batch b;
        {
            ScopedSpan s("study.pass");
            b = batch_pass(st, in, 0);
        }
        (trace_this ? traced_pass_s : pass_s).push_back(t.seconds());
        if (iteration == 0) {
            first = std::move(b);
            report.op(first.transient.num_crossed > 0);
        } else {
            report.op(same_grid(b.grid, first.grid) && same_pole_errors(b.poles, first.poles) &&
                      same_delays(b.transient.delays, first.transient.delays));
        }

        // Point studies: one corner's frequency response, run serially (one
        // corner has nothing to fan out), bitwise equal to its grid row.
        for (int j = 0; j < kPointsPerIteration; ++j) {
            const auto i = static_cast<std::size_t>(rng.below(static_cast<int>(in.grid_samples.size())));
            util::Timer pt;
            std::vector<la::ZMatrix> row;
            {
                ScopedSpan s("study.point", static_cast<std::uint64_t>(iteration) * 10000 + j + 1);
                row = st.sweep_rom(in.grid_samples[i], in.freqs, 1);
            }
            if (!trace_this) point_ms.push_back(pt.milliseconds());
            report.op(same_grid({row}, {first.grid[i]}));
        }
    });
    tracer.enable(false);
    const obs::Snapshot snap = obs::process_snapshot();
    const int iterations = static_cast<int>(pass_s.size() + traced_pass_s.size());

    // ---- output checks outside the timed phase. -----------------------------
    // The engine's grid equals looped ReducedModel::transfer on a subset.
    {
        const mor::ReducedModel& rom = st.cached_rom();
        bool same = true;
        for (std::size_t i = 0; i < in.grid_samples.size(); i += 128)
            for (std::size_t k = 0; k < in.s_points.size(); ++k)
                same = same && same_bits(rom.transfer(in.s_points[k], in.grid_samples[i]),
                                         first.grid[i][k]);
        report.op(same);
        if (!same) std::printf("CHECK FAIL: grid differs from looped ReducedModel::transfer\n");
    }
    const double err_max = rom_error_max(session.sys, st.cached_rom(),
                                         check_corners(session.sys.num_params(), args.seed),
                                         check_freqs());
    report.op(err_max <= kRomErrTolerance);
    std::printf("study: rom_err_max %.3g, pole error p99 %.3g over %zu poles\n", err_max,
                quantile(first.poles.flattened, 0.99), first.poles.flattened.size());

    if (!traced) {
        const Tail points = tail(point_ms);
        out["setup_s"] = median(setup_s);
        // The batch pass runs on the pool; the point studies are serial.
        out["pass_s"] = median(pass_s);
        const std::vector<double> calm = calm_samples(point_ms, kPointChunk);
        out["p50_ms"] = quantile(calm, 0.5);
        out["p90_ms"] = quantile(calm, 0.9);
        report.context("calm_points", static_cast<double>(calm.size()));
        report.context("p99_ms_calm", quantile(calm, 0.99));
        report.context("p50_ms_all", points.p50);
        report.context("p99_ms_all", quantile(point_ms, 0.99));
        report.context("rom_err_max", err_max);
        report.context("study.passes", static_cast<double>(pass_s.size()));
        report.context("study.point_samples", static_cast<double>(points.samples));
        report.context("study.point_tail_percentile", points.percentile);
        return;
    }

    // ---- traced: per-layer metrics. -----------------------------------------
    const auto totals = tracer.totals();
    const auto span_median = [&](const char* name) { return median(tracer.durations_ms(name)); };

    // Serial unit prices of the RomEvalEngine on this ROM.
    std::vector<double> stamp_us, prep_us, point_us;
    {
        mor::RomEvalWorkspace ws;
        for (std::size_t i = 0; i < 64; ++i) {
            util::Timer t;
            engine.stamp_parameters(in.grid_samples[i], ws);
            stamp_us.push_back(t.milliseconds() * 1e3);
            t.reset();
            la::ZMatrix h = engine.transfer(in.s_points[0], ws);
            const double first_us = t.milliseconds() * 1e3;
            std::vector<double> steady;
            for (std::size_t k = 1; k < in.s_points.size(); ++k) {
                t.reset();
                h = engine.transfer(in.s_points[k], ws);
                steady.push_back(t.milliseconds() * 1e3);
            }
            const double steady_us = median(steady);
            point_us.push_back(steady_us);
            prep_us.push_back(first_us - steady_us);
        }
    }
    const double stamp = median(stamp_us), prep = median(prep_us), point = median(point_us);

    // Serial (threads = 1) phases against the pool: speed-up and bit-identity.
    std::vector<double> serial_grid_ms, serial_poles_ms, serial_transient_ms;
    for (int rep = 0; rep < 2; ++rep) {
        tracer.clear();
        tracer.enable(true);
        const Batch serial = batch_pass(st, in, 1);
        tracer.enable(false);
        serial_grid_ms.push_back(span_median("rom_eval.grid"));
        serial_poles_ms.push_back(span_median("analysis.pole_errors"));
        serial_transient_ms.push_back(span_median("analysis.transient"));
        if (!same_grid(serial.grid, first.grid) || !same_pole_errors(serial.poles, first.poles) ||
            !same_delays(serial.transient.delays, first.transient.delays))
            report.fail_check("threads = 1 study differs from the pool study");
        else
            report.op(true);
    }
    const auto pool_median = [&](const char* name) {
        // The timed phase's traced iterations (captured before the clear).
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_ms / static_cast<double>(it->second.count);
    };
    const double grid_ms = pool_median("rom_eval.grid");
    const double poles_ms = pool_median("analysis.pole_errors");
    const double transient_ms = pool_median("analysis.transient");
    const double serial_grid = median(serial_grid_ms);
    const double samples = static_cast<double>(in.grid_samples.size());
    const double points = samples * static_cast<double>(in.s_points.size());

    std::vector<double> full_poles_ms, rom_poles_us;
    {
        mor::RomEvalWorkspace ws;
        for (std::size_t i = 0; i < 16; ++i) {
            util::Timer t;
            const auto full = analysis::dominant_poles_at(session.sys, in.pole_samples[i]);
            full_poles_ms.push_back(t.milliseconds());
            engine.stamp_parameters(in.pole_samples[i], ws);
            t.reset();
            const auto rom = engine.poles(ws);
            rom_poles_us.push_back(t.milliseconds() * 1e3);
        }
    }

    const auto hist = [&](const char* name) {
        const auto it = snap.histograms.find(name);
        return it == snap.histograms.end() ? obs::HistogramSnapshot{} : it->second;
    };
    const obs::HistogramSnapshot corner = hist("transient.corner_ns");
    const double refactorizations = static_cast<double>(snap.counter("solve.refactorizations"));
    const double fallbacks = static_cast<double>(snap.counter("solve.refactor_fallbacks"));

    out["rom_eval.grid_ms"] = grid_ms;
    out["rom_eval.stamp_us"] = stamp;
    out["rom_eval.prep_us"] = prep;
    out["rom_eval.point_us"] = point;
    const double predicted_ms = (samples * (stamp + prep) + points * point) / 1e3;
    out["rom_eval.residual_pct"] = 100.0 * (serial_grid - predicted_ms) / serial_grid;
    out["analysis.poles_ms"] = poles_ms;
    out["poles.full_ms"] = median(full_poles_ms);
    out["poles.rom_us"] = median(rom_poles_us);
    out["analysis.transient_ms"] = transient_ms;
    out["transient.corner_ms.p50"] = corner.p50() / 1e6;
    out["transient.corner_ms.p99"] = corner.p99() / 1e6;
    out["solve.refactorizations"] = refactorizations / iterations;
    out["solve.fallback_ratio"] = refactorizations > 0 ? fallbacks / refactorizations : 0.0;
    out["pool.speedup.grid"] = serial_grid / grid_ms;
    out["pool.speedup.poles"] = median(serial_poles_ms) / poles_ms;
    out["pool.speedup.transient"] = median(serial_transient_ms) / transient_ms;
    out["pool.steals"] = static_cast<double>(snap.counter("pool.steals")) / iterations;
    out["pool.chunks"] = static_cast<double>(snap.counter("pool.chunks")) / iterations;
    out["pool.queue_high_water"] = static_cast<double>(snap.gauge("pool.queue_high_water"));
    out["study.pass_s"] = median(traced_pass_s);
    out["study.pole_err_p99"] = quantile(first.poles.flattened, 0.99);
    out["study.rom_err_max"] = err_max;
    out["bench.trace_overhead_pct"] = 100.0 * (median(traced_pass_s) / median(pass_s) - 1.0);
    report.context("study.traced_iterations", static_cast<double>(traced_iterations));

    print_attribution("rom_eval serial grid (samples x (stamp + prep) + points x point)",
                      serial_grid,
                      {{"stamp", samples * stamp / 1e3},
                       {"prep", samples * prep / 1e3},
                       {"points", points * point / 1e3}},
                      "ms");
}

}  // namespace perfbench
