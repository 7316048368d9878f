// Before/after harness for the solve-context refactor: the analysis drivers
// (sweep_full, TransientBatchRunner, pole_error_study, multi_point_basis)
// were rewired from private copies of the batched-solve scaffold onto
// solve::ParametricSolveContext. Each test reconstructs the pre-refactor
// scaffold inline — union-pattern assemblers, one symbolic analysis, a
// reference factorization, refactorize-or-fallback per point — and asserts
// the rewired drivers produce BIT-IDENTICAL results at threads = 1 and 8.

#include <gtest/gtest.h>

#include <complex>

#include "analysis/freq_sweep.h"
#include "analysis/monte_carlo.h"
#include "analysis/poles.h"
#include "analysis/transient.h"
#include "analysis/transient_batch.h"
#include "circuit/mna.h"
#include "la/ops.h"
#include "mor/lowrank_pmor.h"
#include "mor/multi_point.h"
#include "mor/rom_eval.h"
#include "mor_test_utils.h"
#include "solve/parametric_context.h"
#include "util/constants.h"

namespace varmor {
namespace {

using la::cplx;
using la::ZMatrix;

void expect_bit_identical(const std::vector<ZMatrix>& a, const std::vector<ZMatrix>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].rows(), b[i].rows());
        ASSERT_EQ(a[i].cols(), b[i].cols());
        for (std::size_t k = 0; k < a[i].raw().size(); ++k) {
            EXPECT_EQ(a[i].raw()[k].real(), b[i].raw()[k].real()) << "point " << i;
            EXPECT_EQ(a[i].raw()[k].imag(), b[i].raw()[k].imag()) << "point " << i;
        }
    }
}

void expect_bit_identical(const analysis::TransientResult& a,
                          const analysis::TransientResult& b) {
    ASSERT_EQ(a.time.size(), b.time.size());
    for (std::size_t i = 0; i < a.time.size(); ++i) EXPECT_EQ(a.time[i], b.time[i]);
    ASSERT_EQ(a.ports.size(), b.ports.size());
    for (std::size_t k = 0; k < a.ports.size(); ++k) {
        ASSERT_EQ(a.ports[k].size(), b.ports[k].size());
        for (std::size_t i = 0; i < a.ports[k].size(); ++i)
            EXPECT_EQ(a.ports[k][i], b.ports[k][i]) << "port " << k << " step " << i;
    }
}

// ---------------------------------------------------------------------------
// The context's pattern contract: the sweep pencil and the trapezoid pencils
// carry exactly the context's union(G, C) pattern, so one symbolic analysis
// legally serves all of them (and the per-study scaffolds share it).
// ---------------------------------------------------------------------------

TEST(SolveContext, PencilPatternIsParameterIndependent) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(25, 2, 5);
    const solve::ParametricSolveContext ctx(sys);

    const solve::PencilBatch at_zero(ctx, {0.0, 0.0}, cplx(0.0, 1.0));
    const solve::PencilBatch at_p(ctx, {0.3, -0.2}, cplx(0.0, 1.0));
    EXPECT_EQ(at_zero.assembler().skeleton().col_ptr(), ctx.pencil_col_ptr());
    EXPECT_EQ(at_zero.assembler().skeleton().row_idx(), ctx.pencil_row_idx());
    EXPECT_EQ(at_p.assembler().skeleton().col_ptr(), ctx.pencil_col_ptr());
    EXPECT_EQ(at_p.assembler().skeleton().row_idx(), ctx.pencil_row_idx());
}

TEST(SolveContext, SymbolicAnalysesAreLazyAndCached) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(20, 2, 6);
    const solve::ParametricSolveContext ctx(sys);
    EXPECT_EQ(ctx.symbolic_analyses(), 0);

    (void)ctx.g_symbolic();
    EXPECT_EQ(ctx.symbolic_analyses(), 1);
    (void)ctx.g_symbolic();
    EXPECT_EQ(ctx.symbolic_analyses(), 1);

    (void)ctx.pencil_symbolic();
    EXPECT_EQ(ctx.symbolic_analyses(), 2);
    (void)ctx.pencil_symbolic();
    EXPECT_EQ(ctx.symbolic_analyses(), 2);
}

TEST(SolveContext, SweepsShareOneSymbolicAnalysis) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(25, 2, 7);
    const solve::ParametricSolveContext ctx(sys);
    const auto freqs = analysis::log_frequencies(1e-2, 1.0, 9);

    (void)analysis::sweep_full(ctx, {0.1, 0.0}, freqs);
    (void)analysis::sweep_full(ctx, {-0.2, 0.3}, freqs);
    (void)analysis::sweep_full(ctx, {0.0, 0.0}, freqs);
    EXPECT_EQ(ctx.symbolic_analyses(), 1);
}

// ---------------------------------------------------------------------------
// sweep_full: reconstruction of the scaffold (union-pattern pencil, one
// symbolic analysis, reference at the first frequency, refactorize-or-
// fallback per point, serial).
// ---------------------------------------------------------------------------

std::vector<ZMatrix> reference_sweep(const circuit::ParametricSystem& sys,
                                     const std::vector<double>& p,
                                     const std::vector<double>& freqs) {
    const circuit::ParametricStamper stamper(sys);
    const sparse::PencilAssembler pencil(stamper.g_at(p), stamper.c_at(p));
    const la::ZMatrix bz = la::to_complex(sys.b);
    const la::ZMatrix lzt = la::transpose(la::to_complex(sys.l));
    auto s_of = [&](double f) { return cplx(0.0, util::two_pi_f(f)); };

    const sparse::ZCsc skel = pencil.skeleton();
    const sparse::SpluSymbolic symbolic = sparse::SpluSymbolic::analyze(skel);
    sparse::ZSparseLu::Options lu_opts;
    lu_opts.symbolic = &symbolic;
    const sparse::ZSparseLu reference(pencil.assemble(s_of(freqs[0])), lu_opts);

    std::vector<ZMatrix> out(freqs.size());
    out[0] = la::matmul(lzt, reference.solve(bz));
    sparse::ZCsc a = pencil.skeleton();
    sparse::ZSparseLu lu = reference;
    sparse::ZSpluWorkspace ws;
    for (std::size_t i = 1; i < freqs.size(); ++i) {
        pencil.assemble(s_of(freqs[i]), a);
        ZMatrix x;
        try {
            lu.refactorize(a, ws);
            x = lu.solve(bz);
        } catch (const sparse::RefactorError&) {
            x = sparse::ZSparseLu(a, lu_opts, ws).solve(bz);
        }
        out[i] = la::matmul(lzt, x);
    }
    return out;
}

TEST(SolveContextHarness, SweepFullUnchangedByRefactor) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(30, 2, 41);
    const auto freqs = analysis::log_frequencies(1e-3, 10.0, 21);
    for (const std::vector<double>& p :
         {std::vector<double>{0.2, -0.15}, std::vector<double>{0.0, 0.0}}) {
        const auto reference = reference_sweep(sys, p, freqs);
        for (int threads : {1, 8})
            expect_bit_identical(reference, analysis::sweep_full(sys, p, freqs, threads));
    }
}

// ---------------------------------------------------------------------------
// TransientBatchRunner: reconstruction of the pre-refactor engine (trapezoid
// AffineAssemblers from chained sparse adds, its own symbolic analysis of
// the trapezoid union pattern, nominal reference, refactorize-or-fallback
// per corner). The pre-refactor engine analyzed the TRAPEZOID pattern where
// the context analyzes union(G, C) — the test proves those patterns (and
// hence the factorizations) are identical.
// ---------------------------------------------------------------------------

std::vector<analysis::TransientResult> reference_transient_batch(
    const circuit::ParametricSystem& sys, const std::vector<std::vector<double>>& corners,
    const analysis::InputFn& input, const analysis::TransientOptions& opts) {
    const double inv_h = 1.0 / opts.dt;
    auto pencil = [&](double g_sign) {
        const sparse::Csc base = sparse::add(inv_h, sys.c0, g_sign * 0.5, sys.g0);
        std::vector<sparse::Csc> terms;
        for (std::size_t i = 0; i < sys.dg.size(); ++i)
            terms.push_back(sparse::add(inv_h, sys.dc[i], g_sign * 0.5, sys.dg[i]));
        return sparse::AffineAssembler(base, terms);
    };
    const sparse::AffineAssembler lhs = pencil(+1.0);
    const sparse::AffineAssembler rhs = pencil(-1.0);
    const sparse::SpluSymbolic symbolic = sparse::SpluSymbolic::analyze(lhs.skeleton());
    const std::vector<double> p0(sys.dg.size(), 0.0);
    const sparse::SparseLu reference(lhs.combine(p0), symbolic);

    const analysis::detail::StepGrid grid = analysis::detail::make_grid(opts);
    const auto forcing = analysis::detail::forcing_series(
        grid, input, [&](const la::Vector& u) { return la::matvec(sys.b, u); });

    std::vector<analysis::TransientResult> out;
    sparse::Csc lhs_m = lhs.skeleton();
    sparse::Csc rhs_m = rhs.skeleton();
    sparse::SparseLu lu = reference;
    sparse::SpluWorkspace ws;
    for (const std::vector<double>& p : corners) {
        rhs.combine(p, rhs_m);
        const sparse::SparseLu* solver = &lu;
        std::optional<sparse::SparseLu> corner_lu;
        if (std::all_of(p.begin(), p.end(), [](double v) { return v == 0.0; })) {
            corner_lu.emplace(reference);
            solver = &*corner_lu;
        } else {
            lhs.combine(p, lhs_m);
            try {
                lu.refactorize(lhs_m, ws);
            } catch (const sparse::RefactorError&) {
                sparse::SparseLu::Options lo;
                lo.symbolic = &symbolic;
                corner_lu.emplace(lhs_m, lo, ws);
                solver = &*corner_lu;
            }
        }
        out.push_back(analysis::detail::trapezoidal(
            sys.num_ports(), grid, forcing,
            [&](int, const la::Vector& r) { return solver->solve(r); },
            [&](int, const la::Vector& x) { return rhs_m.apply(x); },
            [&](const la::Vector& x) { return la::matvec_transpose(sys.l, x); },
            sys.size()));
    }
    return out;
}

TEST(SolveContextHarness, TransientBatchUnchangedByRefactor) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(30, 2, 97);
    analysis::MonteCarloOptions mc;
    mc.samples = 6;
    mc.sigma = 0.2;
    auto corners = analysis::sample_parameters(2, mc);
    corners.push_back({0.0, 0.0});  // nominal shortcut path

    analysis::TransientOptions topts;
    topts.t_stop = 20.0;
    topts.dt = 0.5;
    const analysis::InputFn input = analysis::step_input(sys.num_ports(), 0);

    const auto reference = reference_transient_batch(sys, corners, input, topts);
    const analysis::TransientBatchRunner runner(sys, topts);
    for (int threads : {1, 8}) {
        const auto batch = runner.run_batch(corners, input, threads);
        ASSERT_EQ(batch.size(), reference.size());
        for (std::size_t k = 0; k < corners.size(); ++k)
            expect_bit_identical(reference[k], batch[k]);
    }
}

// ---------------------------------------------------------------------------
// pole_error_study: reconstruction of the pre-refactor loop (stamper +
// symbolic of the G union pattern + per-sample fresh factorization, serial).
// ---------------------------------------------------------------------------

TEST(SolveContextHarness, PoleErrorStudyUnchangedByRefactor) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(40, 2, 13);
    mor::LowRankPmorOptions mopts;
    mopts.s_order = 3;
    mopts.param_order = 2;
    const mor::LowRankPmorResult model = mor::lowrank_pmor(sys, mopts);

    analysis::MonteCarloOptions mc;
    mc.samples = 6;
    const auto samples = analysis::sample_parameters(2, mc);
    analysis::PoleOptions popts;
    popts.count = 3;

    // Pre-refactor scaffold, serial.
    const circuit::ParametricStamper stamper(sys);
    const sparse::SpluSymbolic symbolic =
        sparse::SpluSymbolic::analyze(stamper.g_skeleton());
    const mor::RomEvalEngine rom_engine(model.model);
    std::vector<std::vector<double>> want_errors;
    {
        sparse::Csc g = stamper.g_skeleton();
        sparse::Csc c = stamper.c_skeleton();
        mor::RomEvalWorkspace rom_ws;
        for (const auto& p : samples) {
            stamper.g_at(p, g);
            stamper.c_at(p, c);
            const auto full = analysis::dominant_poles(g, c, popts, symbolic);
            if (full.empty()) {
                want_errors.push_back({});
                continue;
            }
            rom_engine.stamp_parameters(p, rom_ws);
            auto red = rom_engine.poles(rom_ws);
            const std::size_t want = static_cast<std::size_t>(popts.count) * 2 + 4;
            if (red.size() > want) red.resize(want);
            want_errors.push_back(analysis::pole_match_errors(full, red));
        }
    }

    for (int threads : {1, 8}) {
        const auto study = analysis::pole_error_study(sys, model.model, samples, popts, threads);
        ASSERT_EQ(study.errors.size(), want_errors.size());
        for (std::size_t i = 0; i < want_errors.size(); ++i) {
            ASSERT_EQ(study.errors[i].size(), want_errors[i].size()) << "sample " << i;
            for (std::size_t j = 0; j < want_errors[i].size(); ++j)
                EXPECT_EQ(study.errors[i][j], want_errors[i][j]) << "sample " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// multi_point_basis: the context overload and the one-shot overload are the
// same computation.
// ---------------------------------------------------------------------------

TEST(SolveContextHarness, MultiPointBasisContextMatchesOneShot) {
    const circuit::ParametricSystem sys = testing::small_parametric_rc(30, 2, 21);
    const auto samples = mor::grid_samples(2, {-1.0, 0.0, 1.0});
    mor::MultiPointOptions opts;
    opts.blocks_per_sample = 3;

    const mor::MultiPointResult one_shot = mor::multi_point_basis(sys, samples, opts);

    const solve::ParametricSolveContext ctx(sys);
    const mor::MultiPointResult shared = mor::multi_point_basis(ctx, samples, opts);
    EXPECT_EQ(shared.factorizations, one_shot.factorizations);
    ASSERT_EQ(shared.basis.rows(), one_shot.basis.rows());
    ASSERT_EQ(shared.basis.cols(), one_shot.basis.cols());
    for (std::size_t e = 0; e < shared.basis.raw().size(); ++e)
        EXPECT_EQ(shared.basis.raw()[e], one_shot.basis.raw()[e]);

    // A second basis on the same context reuses the symbolic analysis.
    EXPECT_EQ(ctx.symbolic_analyses(), 1);
    (void)mor::multi_point_basis(ctx, samples, opts);
    EXPECT_EQ(ctx.symbolic_analyses(), 1);
}

// ---------------------------------------------------------------------------
// The fallback policy itself (RefactorBatchT): a value set that collapses
// the frozen reference pivots must take the fresh-factorization fallback and
// still solve accurately.
// ---------------------------------------------------------------------------

TEST(RefactorBatch, FallbackOnCollapsedPivotSolvesAccurately) {
    // Reference [[1, .5], [.5, 1]]; the batch matrix zeroes the (0,0) entry,
    // collapsing the frozen (diagonal) pivot while staying nonsingular.
    sparse::Triplets t(2, 2);
    t.add(0, 0, 1.0);
    t.add(0, 1, 0.5);
    t.add(1, 0, 0.5);
    t.add(1, 1, 1.0);
    const sparse::Csc m0(t);
    const sparse::SpluSymbolic symbolic = sparse::SpluSymbolic::analyze(m0);
    const solve::RefactorBatch batch(m0, symbolic);

    solve::RefactorBatch::Scratch scratch = batch.make_scratch([&] {
        sparse::Csc skel = m0;
        std::fill(skel.values().begin(), skel.values().end(), 0.0);
        return skel;
    }());
    scratch.a.values() = {0.0, 0.5, 0.5, 1.0};

    const sparse::SparseLu& lu = batch.factor(scratch);
    EXPECT_TRUE(scratch.fallback.has_value());  // took the fallback path
    const la::Vector x = lu.solve(la::Vector{1.0, 0.0});
    // [[0, .5], [.5, 1]] x = [1, 0]  =>  x = [-4, 2].
    EXPECT_NEAR(x[0], -4.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);

    // Reusing the same scratch for a benign matrix goes back to the
    // refactorize path and leaves no stale state.
    scratch.a.values() = {2.0, 0.5, 0.5, 1.0};
    const sparse::SparseLu& lu2 = batch.factor(scratch);
    const la::Vector y = lu2.solve(la::Vector{1.0, 1.0});
    EXPECT_NEAR(2.0 * y[0] + 0.5 * y[1], 1.0, 1e-12);
    EXPECT_NEAR(0.5 * y[0] + 1.0 * y[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace varmor
