// Batched ROM evaluation engine vs the naive per-point path (the PR-1/PR-2
// batched solve engine carried to the REDUCED side): a Monte-Carlo frequency
// study on a q~60 parametric ROM evaluates (samples x frequencies) points.
// The naive path re-allocates G~(p), C~(p), the pencil and a fresh dense LU
// at EVERY point and multiplies with unblocked loops — what
// ReducedModel::transfer() did before the engine existed. The engine packs
// the affine family once, stamps each sample once for all its frequencies,
// factors in a reusable workspace with blocked kernels, and fans the grid
// over the thread pool. Writes machine-readable timings to
// BENCH_rom_eval.json (or argv[1]) for the CI artifact.

#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "analysis/freq_sweep.h"
#include "analysis/monte_carlo.h"
#include "bench_util.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "la/lu_dense.h"
#include "la/ops.h"
#include "la/simd.h"
#include "mor/prima.h"
#include "mor/reduced_model.h"
#include "mor/rom_eval.h"
#include "obs/export.h"
#include "reference_kernels.h"
#include "util/constants.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace varmor;
using la::cplx;
using la::ZMatrix;

namespace {

/// The seed implementation of dense LU: row-oriented elimination and
/// substitution, fresh allocations per solve — reconstructed here so the
/// "naive per-point path" baseline measures what the pre-engine code
/// actually did, independent of the library's now-blocked kernels.
struct SeedLu {
    la::ZMatrix lu;
    std::vector<int> perm;

    explicit SeedLu(la::ZMatrix a) : lu(std::move(a)), perm(lu.rows()) {
        const int n = lu.rows();
        for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
        for (int k = 0; k < n; ++k) {
            int piv = k;
            double best = std::abs(lu(k, k));
            for (int i = k + 1; i < n; ++i) {
                const double v = std::abs(lu(i, k));
                if (v > best) { best = v; piv = i; }
            }
            if (piv != k) {
                for (int j = 0; j < n; ++j) std::swap(lu(k, j), lu(piv, j));
                std::swap(perm[static_cast<std::size_t>(k)], perm[static_cast<std::size_t>(piv)]);
            }
            const cplx pivot = lu(k, k);
            for (int i = k + 1; i < n; ++i) {
                const cplx m = lu(i, k) / pivot;
                lu(i, k) = m;
                if (m == cplx{}) continue;
                for (int j = k + 1; j < n; ++j) lu(i, j) -= m * lu(k, j);
            }
        }
    }

    la::ZVector solve(const la::ZVector& b) const {
        const int n = lu.rows();
        la::ZVector x(n);
        for (int i = 0; i < n; ++i) x[i] = b[perm[static_cast<std::size_t>(i)]];
        for (int i = 1; i < n; ++i) {
            cplx acc = x[i];
            for (int j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
            x[i] = acc;
        }
        for (int i = n - 1; i >= 0; --i) {
            cplx acc = x[i];
            for (int j = i + 1; j < n; ++j) acc -= lu(i, j) * x[j];
            x[i] = acc / lu(i, i);
        }
        return x;
    }

    la::ZMatrix solve(const la::ZMatrix& b) const {
        la::ZMatrix x(b.rows(), b.cols());
        for (int j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
        return x;
    }
};

double max_grid_deviation(const std::vector<std::vector<ZMatrix>>& a,
                          const std::vector<std::vector<ZMatrix>>& b) {
    double dev = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < a[i].size(); ++j)
            dev = std::max(dev, la::norm_max(a[i][j] - b[i][j]));
    return dev;
}

}  // namespace

int main(int argc, char** argv) {
    bench::banner("rom_eval: batched ROM evaluation vs naive per-point loop",
                  "the paper's premise that variational analysis on the reduced "
                  "model is (nearly) free — millions of (sample, frequency) "
                  "scenarios on a small dense model (sections 4-5)");
    bench::ShapeChecks checks;

    // A q~60 parametric ROM of the section-5.1 random RC network.
    circuit::RandomRcOptions copts;
    copts.unknowns = 767;
    const circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(copts));
    mor::PrimaOptions popts;
    popts.blocks = 30;  // q = blocks * ports = 60 before deflation
    const la::Matrix v = mor::prima_basis_at(sys, {0.0, 0.0}, popts);
    const mor::ReducedModel model = mor::project(sys, v);

    analysis::MonteCarloOptions mc;
    mc.samples = 256;
    mc.sigma = 0.1;
    const auto samples = analysis::sample_parameters(sys.num_params(), mc);
    const auto freqs = analysis::log_frequencies(1e6, 1e10, 40);
    std::vector<cplx> s_points;
    for (double f : freqs) s_points.emplace_back(0.0, util::two_pi_f(f));
    std::printf("ROM: q = %d, %d ports, %d params; grid = %zu samples x %zu frequencies\n\n",
                model.size(), model.num_ports(), model.num_params(), samples.size(),
                s_points.size());

    // Baseline: the naive per-point path — fresh G~(p)/C~(p)/pencil
    // allocations, a fresh seed-style (row-oriented) dense LU and unblocked
    // multiplies at every single point.
    util::Timer t;
    std::vector<std::vector<ZMatrix>> naive(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto& p = samples[i];
        naive[i].reserve(s_points.size());
        for (const cplx& s : s_points) {
            const SeedLu k(la::pencil(model.g_at(p), model.c_at(p), s));
            const ZMatrix x = k.solve(la::to_complex(model.b));
            naive[i].push_back(
                la::matmul_naive(la::transpose(la::to_complex(model.l)), x));
        }
    }
    const double ms_naive = t.milliseconds();

    // Today's looped path: transfer() is the engine's batch-of-one, so every
    // point pays the per-sample preparation for a single frequency — the
    // price of the one-code-path contract for one-shot callers. The engine
    // must be bit-identical to THIS loop.
    t.reset();
    std::vector<std::vector<ZMatrix>> looped(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        looped[i].reserve(s_points.size());
        for (const cplx& s : s_points)
            looped[i].push_back(model.transfer(s, samples[i]));
    }
    const double ms_looped = t.milliseconds();

    // Batched engine, serial and parallel. Construction (affine packing) is
    // timed inside both measurements so the rows compare equal work.
    t.reset();
    const mor::RomEvalEngine serial_engine(model);
    const auto serial = serial_engine.transfer_grid(samples, s_points, 1);
    const double ms_serial = t.milliseconds();

    t.reset();
    const mor::RomEvalEngine parallel_engine(model);
    const auto parallel = parallel_engine.transfer_grid(samples, s_points, 0);
    const double ms_parallel = t.milliseconds();

    const double speedup_naive = ms_naive / ms_serial;
    const double speedup_looped = ms_looped / ms_serial;
    const double speedup_parallel = ms_naive / ms_parallel;
    util::Table table({"ROM evaluation path (10240 points)", "time [ms]", "speedup"});
    table.add_row({"naive per-point loop (seed kernels)", util::Table::num(ms_naive, 4),
                   "1.0"});
    table.add_row({"looped transfer() (batch-of-one per point)",
                   util::Table::num(ms_looped, 4), util::Table::num(ms_naive / ms_looped, 3)});
    table.add_row({"batched engine, 1 thread", util::Table::num(ms_serial, 4),
                   util::Table::num(speedup_naive, 3)});
    table.add_row({"batched engine, " + std::to_string(util::ThreadPool::default_threads()) +
                       " threads", util::Table::num(ms_parallel, 4),
                   util::Table::num(speedup_parallel, 3)});
    table.print(std::cout);
    std::printf("\n");

    // The engine's stage profile (rom_eval.* counters + grid histogram) and
    // the work-stealing scheduler's counters, through the same snapshot the
    // serving stack exports — one printing routine for every bench.
    const obs::Snapshot telemetry = obs::process_snapshot();
    bench::print_snapshot(telemetry, "telemetry (process snapshot)");
    std::printf("\n");

    // PR-8 raised the bar: the simd arm's blocked/transposed kernels hold
    // ~30x over the seed loop on AVX2 hardware and ~11x on the forced-scalar
    // arm (the transposed Hessenberg solve and wider RHS blocking help both).
    // Gate at roughly a third of the measured ratios so CI machine noise
    // cannot flake the check, arm-aware through la::simd::kActive.
    const double gate = la::simd::kActive ? 8.0 : 4.0;
    checks.expect(speedup_naive >= gate,
                  "batched engine is >= " + std::to_string(static_cast<int>(gate)) +
                      "x faster than the naive per-point path (single-threaded)");
    checks.expect(max_grid_deviation(serial, looped) == 0.0,
                  "batched engine is bit-identical to the serial looped "
                  "transfer() path");
    checks.expect(max_grid_deviation(serial, parallel) == 0.0,
                  "parallel grid is bit-identical to the serial grid");
    // The seed kernels sum in a different order; agreement is numerical, not
    // bitwise.
    checks.expect(max_grid_deviation(serial, naive) < 1e-8,
                  "engine matches the naive path numerically");

    const char* json_path = argc > 1 ? argv[1] : "BENCH_rom_eval.json";
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"bench\": \"rom_eval\",\n"
         << "  \"rom_size\": " << model.size() << ",\n"
         << "  \"samples\": " << samples.size() << ",\n"
         << "  \"frequencies\": " << s_points.size() << ",\n"
         << "  \"threads\": " << util::ThreadPool::default_threads() << ",\n"
         << "  \"simd\": " << (la::simd::kActive ? "true" : "false") << ",\n"
         << "  \"ms_naive_per_point\": " << ms_naive << ",\n"
         << "  \"ms_looped_transfer\": " << ms_looped << ",\n"
         << "  \"ms_batched_serial\": " << ms_serial << ",\n"
         << "  \"ms_batched_parallel\": " << ms_parallel << ",\n"
         << "  \"speedup_vs_naive\": " << speedup_naive << ",\n"
         << "  \"speedup_vs_looped\": " << speedup_looped << ",\n"
         << "  \"speedup_parallel\": " << speedup_parallel << ",\n"
         << "  \"telemetry\": " << telemetry.to_json(2) << ",\n"
         << "  \"shape_failures\": " << checks.failures() << "\n"
         << "}\n";
    std::printf("wrote %s\n", json_path);

    return checks.exit_code();
}
