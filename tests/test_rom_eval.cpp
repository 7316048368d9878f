#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <vector>

#include "analysis/freq_sweep.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "la/eig.h"
#include "la/eig_sym.h"
#include "la/ops.h"
#include "mor/prima.h"
#include "mor/reduced_model.h"
#include "mor/rom_eval.h"
#include "mor_test_utils.h"
#include "obs/metrics.h"
#include "util/constants.h"

namespace varmor::mor {
namespace {

using la::cplx;
using la::ZMatrix;

/// PRIMA ROM of `sys` at nominal parameters, keeping the first `order`
/// basis columns (a congruence projection onto a smaller orthonormal basis
/// is still one), so q == order exactly.
ReducedModel prima_rom(const circuit::ParametricSystem& sys, int order) {
    PrimaOptions popts;
    const int ports = sys.b.cols();
    popts.blocks = (order + ports - 1) / ports;
    la::Matrix v = prima_basis_at(
        sys, std::vector<double>(static_cast<std::size_t>(sys.num_params()), 0.0), popts);
    check(v.cols() >= order, "prima_rom: basis deflated below the requested order");
    la::Matrix vq(v.rows(), order);
    for (int j = 0; j < order; ++j)
        std::copy(v.col_data(j), v.col_data(j) + v.rows(), vq.col_data(j));
    return project(sys, vq);
}

/// A reduced parametric model of a small random RC tree (q = blocks * ports).
ReducedModel make_model(int nodes = 40, int num_params = 3, std::uint64_t seed = 7,
                        int blocks = 6) {
    return prima_rom(testing::small_parametric_rc(nodes, num_params, seed), 2 * blocks);
}

/// A reduced model of a small coupled RLC bus (4 ports, 2 parameters): not
/// symmetric, so it takes the general lanes.
ReducedModel make_rlc_model(int order, int segments = 12) {
    circuit::RlcBusOptions o;
    o.segments_per_line = segments;
    return prima_rom(circuit::assemble_mna(circuit::coupled_rlc_bus(o)), order);
}

/// H(s, p) = L~^T (G~(p) + s C~(p))^-1 B~ by an explicit dense LU.
ZMatrix dense_reference(const ReducedModel& model, const std::vector<double>& p, cplx s) {
    const la::Matrix gp = model.g_at(p);
    const la::Matrix cp = model.c_at(p);
    ZMatrix k(gp.rows(), gp.cols());
    for (std::size_t e = 0; e < k.raw().size(); ++e) k.raw()[e] = gp.raw()[e] + s * cp.raw()[e];
    return la::matmul(la::transpose(la::to_complex(model.l)),
                      la::DenseLu<cplx>(k).solve(la::to_complex(model.b)));
}

/// The eigenvalues mu of G~(p)^-1 C~(p) (nonsymmetric QR) that give finite
/// poles s = -1/mu: |mu| above the engine's cutoff.
std::vector<cplx> pencil_mus(const ReducedModel& model, const std::vector<double>& p) {
    const la::Matrix a = la::DenseLu<double>(model.g_at(p)).solve(model.c_at(p));
    std::vector<cplx> mus = la::eig_values(a);
    const double cutoff = 1e-14 * (1.0 + la::norm_fro(a));
    mus.erase(std::remove_if(mus.begin(), mus.end(),
                             [&](cplx mu) { return std::abs(mu) <= cutoff; }),
              mus.end());
    return mus;
}

/// Nominal plus every sign corner of p = +-amplitude.
std::vector<std::vector<double>> corners(int num_params, double amplitude) {
    std::vector<std::vector<double>> out{
        std::vector<double>(static_cast<std::size_t>(num_params), 0.0)};
    for (int mask = 0; mask < (1 << num_params); ++mask) {
        std::vector<double> p(static_cast<std::size_t>(num_params));
        for (int i = 0; i < num_params; ++i)
            p[static_cast<std::size_t>(i)] = (mask >> i) & 1 ? amplitude : -amplitude;
        out.push_back(std::move(p));
    }
    return out;
}

long long rc_fallbacks() {
    return obs::Registry::global().counter("rom_eval.rc_fallbacks").value();
}

std::vector<std::vector<double>> make_samples(int count, int num_params,
                                              std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::vector<double>> samples;
    for (int k = 0; k < count; ++k) {
        std::vector<double> p(static_cast<std::size_t>(num_params));
        for (double& x : p) x = rng.uniform(-0.2, 0.2);
        samples.push_back(std::move(p));
    }
    // Include the nominal point: its skip-zero stamping path must agree too.
    samples.push_back(std::vector<double>(static_cast<std::size_t>(num_params), 0.0));
    return samples;
}

std::vector<cplx> make_s_points(int count) {
    std::vector<cplx> s;
    for (double f : analysis::log_frequencies(1e6, 1e10, count))
        s.emplace_back(0.0, util::two_pi_f(f));
    return s;
}

double max_grid_deviation(const std::vector<std::vector<ZMatrix>>& a,
                          const std::vector<std::vector<ZMatrix>>& b) {
    double dev = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < a[i].size(); ++j)
            dev = std::max(dev, la::norm_max(a[i][j] - b[i][j]));
    return dev;
}

TEST(RomEvalEngine, GridBitIdenticalToLoopedTransfer) {
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(5, model.num_params(), 11);
    const auto s_points = make_s_points(7);

    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& s : s_points) row.push_back(model.transfer(s, p));
        looped.push_back(std::move(row));
    }

    for (int threads : {1, 8}) {
        const auto grid = engine.transfer_grid(samples, s_points, threads);
        EXPECT_EQ(max_grid_deviation(grid, looped), 0.0)
            << "engine grid deviates from looped transfer() at threads=" << threads;
    }
}

TEST(RomEvalEngine, SensitivityBitIdenticalToLooped) {
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(3, model.num_params(), 13);
    const cplx s(0.0, util::two_pi_f(3e8));

    RomEvalWorkspace ws;
    for (const auto& p : samples) {
        engine.stamp_parameters(p, ws);
        for (int i = 0; i < model.num_params(); ++i) {
            const ZMatrix looped = model.transfer_sensitivity(s, p, i);
            const ZMatrix batched = engine.transfer_sensitivity(s, i, ws);
            EXPECT_EQ(la::norm_max(batched - looped), 0.0) << "param " << i;
        }
    }
}

/// Sensitivities at q >= kDirectPathOrder route through the per-sample
/// Hessenberg form (two O(q^2) solves) instead of factoring the complex
/// pencil per frequency — also on an RC sample, whose transfer() lane stays
/// RC. Validates against the explicit direct formula -L~^T K^-1 dK K^-1 B~
/// with tolerance (mathematically equal, different factorization), and pins
/// looped-vs-batched bitwise (one code path).
void expect_sensitivity_matches_direct_formula(const ReducedModel& model, RomLane lane) {
    ASSERT_GE(model.size(), RomEvalEngine::kDirectPathOrder);
    const RomEvalEngine engine(model);
    const cplx s(0.0, util::two_pi_f(5e8));

    RomEvalWorkspace ws;
    for (const auto& p : make_samples(2, model.num_params(), 61)) {
        engine.stamp_parameters(p, ws);
        (void)engine.transfer(s, ws);
        ASSERT_EQ(ws.lane(), lane);

        const la::Matrix gp = model.g_at(p);
        const la::Matrix cp = model.c_at(p);
        la::ZMatrix k(gp.rows(), gp.cols());
        for (std::size_t e = 0; e < k.raw().size(); ++e)
            k.raw()[e] = gp.raw()[e] + s * cp.raw()[e];
        const la::DenseLu<cplx> klu(k);
        const ZMatrix x = klu.solve(la::to_complex(model.b));
        const la::ZMatrix lt = la::transpose(la::to_complex(model.l));

        for (int i = 0; i < model.num_params(); ++i) {
            const ZMatrix batched = engine.transfer_sensitivity(s, i, ws);
            const ZMatrix looped = model.transfer_sensitivity(s, p, i);
            EXPECT_EQ(la::norm_max(batched - looped), 0.0) << "param " << i;

            const auto ui = static_cast<std::size_t>(i);
            la::ZMatrix dk(gp.rows(), gp.cols());
            for (std::size_t e = 0; e < dk.raw().size(); ++e)
                dk.raw()[e] = model.dg[ui].raw()[e] + s * model.dc[ui].raw()[e];
            ZMatrix ref = la::matmul(lt, klu.solve(la::matmul(dk, x)));
            for (cplx& v : ref.raw()) v = -v;
            EXPECT_LE(la::norm_max(batched - ref), 1e-9 * (1.0 + la::norm_max(ref)))
                << "param " << i;
        }
        EXPECT_EQ(ws.lane(), lane) << "sensitivities must not move transfer()'s lane";
    }
}

TEST(RomEvalEngine, SensitivityHessenbergLaneMatchesDirectFactorization) {
    expect_sensitivity_matches_direct_formula(make_rlc_model(24), RomLane::hessenberg);
    // RC twin: q = 24 on the RC lane; its sensitivities take the same chain.
    expect_sensitivity_matches_direct_formula(make_model(80, 3, 7, 12), RomLane::rc);
}

TEST(RomEvalEngine, SensitivityWithoutPriorTransferPreparesItself) {
    // transfer_sensitivity as the FIRST per-sample call must trigger the
    // same preparation transfer() would — and agree bitwise with the
    // sensitivity computed after a transfer() warmed the workspace.
    const ReducedModel model = make_model(80, 3, 7, 12);  // q = 24
    const RomEvalEngine engine(model);
    const cplx s(0.0, util::two_pi_f(1e9));
    const std::vector<double> p{0.05, -0.1, 0.15};

    RomEvalWorkspace cold, warm;
    engine.stamp_parameters(p, cold);
    engine.stamp_parameters(p, warm);
    (void)engine.transfer(s, warm);
    for (int i = 0; i < model.num_params(); ++i)
        EXPECT_EQ(la::norm_max(engine.transfer_sensitivity(s, i, cold) -
                               engine.transfer_sensitivity(s, i, warm)),
                  0.0)
            << "param " << i;
}

TEST(RomEvalEngine, PolesBitIdenticalToModelPoles) {
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    for (const auto& p : make_samples(4, model.num_params(), 17)) {
        engine.stamp_parameters(p, ws);
        const auto batched = engine.poles(ws);
        const auto looped = model.poles(p);
        ASSERT_EQ(batched.size(), looped.size());
        for (std::size_t k = 0; k < batched.size(); ++k)
            EXPECT_EQ(batched[k], looped[k]) << "pole " << k;
    }
}

TEST(RomEvalEngine, WorkspaceReuseIsDeterministic) {
    // One workspace across samples of different character (zero / nonzero
    // parameters) must give the same answers as a fresh workspace per call.
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(4, model.num_params(), 19);
    const cplx s(0.0, util::two_pi_f(1e9));

    RomEvalWorkspace reused;
    for (const auto& p : samples) {
        RomEvalWorkspace fresh;
        engine.stamp_parameters(p, reused);
        engine.stamp_parameters(p, fresh);
        EXPECT_EQ(la::norm_max(engine.transfer(s, reused) - engine.transfer(s, fresh)),
                  0.0);
    }
}

TEST(RomEvalEngine, TransferRequiresStamp) {
    const ReducedModel model = make_model(20, 2, 3, 4);
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    EXPECT_THROW(engine.transfer(cplx(0, 1), ws), Error);
    engine.stamp_parameters({0.1, -0.1}, ws);
    EXPECT_NO_THROW(engine.transfer(cplx(0, 1), ws));
    EXPECT_THROW(engine.transfer_sensitivity(cplx(0, 1), 2, ws), Error);
    EXPECT_THROW(engine.stamp_parameters({0.1}, ws), Error);
}

TEST(RomEvalEngine, SweepReducedMatchesLoopAtAnyThreadCount) {
    const ReducedModel model = make_model();
    const std::vector<double> p{0.05, -0.1, 0.15};
    const auto freqs = analysis::log_frequencies(1e6, 1e10, 12);

    std::vector<ZMatrix> looped;
    for (double f : freqs)
        looped.push_back(model.transfer(cplx(0.0, util::two_pi_f(f)), p));

    for (int threads : {1, 8}) {
        const auto swept = analysis::sweep_reduced(model, p, freqs, threads);
        ASSERT_EQ(swept.size(), looped.size());
        for (std::size_t i = 0; i < swept.size(); ++i)
            EXPECT_EQ(la::norm_max(swept[i] - looped[i]), 0.0)
                << "frequency " << i << " at threads=" << threads;
    }
}

/// Loops ReducedModel::transfer() over samples x frequencies.
std::vector<std::vector<ZMatrix>> looped_grid(const ReducedModel& model,
                                              const std::vector<std::vector<double>>& samples,
                                              const std::vector<cplx>& s_points) {
    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& sp : s_points) row.push_back(model.transfer(sp, p));
        looped.push_back(std::move(row));
    }
    return looped;
}

/// Checks which dispatch lane a model takes, and pins the engine grid
/// bitwise against looped transfer() calls at 1 and 8 threads.
void expect_grid_bitwise_on_lane(const ReducedModel& model, RomLane lane,
                                 std::uint64_t sample_seed) {
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    const auto samples = make_samples(3, model.num_params(), sample_seed);
    engine.stamp_parameters(samples[0], ws);
    EXPECT_EQ(ws.lane(), RomLane::unprepared);
    (void)engine.transfer(cplx(0.0, util::two_pi_f(1e9)), ws);
    EXPECT_EQ(ws.lane(), lane);

    const auto s_points = make_s_points(5);
    const auto looped = looped_grid(model, samples, s_points);
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0)
            << "threads=" << threads;
}

TEST(RomEvalEngine, SmallModelsTakeTheDirectFastLane) {
    // Below kDirectPathOrder a general-lane (RLC) model's one-shot path must
    // skip the per-sample Hessenberg preparation and use the direct
    // dense-pencil kernel — while staying bit-identical between looped
    // transfer() and engine grids (the threshold depends only on q, so both
    // sides take the same branch).
    const ReducedModel model = make_rlc_model(8);
    ASSERT_LT(model.size(), RomEvalEngine::kDirectPathOrder);
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    const std::vector<double> p{0.1, -0.05};
    engine.stamp_parameters(p, ws);
    const cplx s(0.0, util::two_pi_f(1e9));
    const ZMatrix h = engine.transfer(s, ws);
    EXPECT_EQ(ws.lane(), RomLane::direct);

    // The fast lane computes the same transfer function as an explicit dense
    // pencil solve L~^T (G~ + sC~)^-1 B~.
    const ZMatrix ref = dense_reference(model, p, s);
    EXPECT_LE(la::norm_max(h - ref), 1e-12 * (1.0 + la::norm_max(ref)));

    expect_grid_bitwise_on_lane(model, RomLane::direct, 29);
}

TEST(RomEvalEngine, LargeModelsKeepTheHessenbergPath) {
    // Above the threshold a general-lane (RLC) model keeps the per-sample
    // Hessenberg reduction (the batched O(q^2)-per-frequency claim), and
    // grids remain bitwise equal to looped transfer() calls.
    const ReducedModel model = make_rlc_model(24);
    ASSERT_GE(model.size(), RomEvalEngine::kDirectPathOrder);
    expect_grid_bitwise_on_lane(model, RomLane::hessenberg, 37);
}

TEST(RomEvalEngine, RcModelsTakeTheRcLaneAtEveryOrder) {
    // RC twins of the dispatch tests: an RC model takes the RC lane on both
    // sides of kDirectPathOrder, with grid == loop bitwise.
    expect_grid_bitwise_on_lane(make_model(30, 2, 23, 4), RomLane::rc, 29);   // q = 8
    expect_grid_bitwise_on_lane(make_model(60, 2, 41, 9), RomLane::rc, 43);   // q = 18
    expect_grid_bitwise_on_lane(make_model(60, 2, 41, 10), RomLane::rc, 47);  // q = 20
    expect_grid_bitwise_on_lane(make_model(80, 3, 7, 12), RomLane::rc, 37);   // q = 24
}

TEST(RomEvalEngine, RcLaneMatchesDenseReference) {
    // Every RC generator, at q < 20 and q >= 20, at nominal and the +-30%
    // corners, from 1 MHz to 10 GHz: the RC lane's transfer() matches an
    // explicit dense LU of the pencil, and its poles match the eigenvalues
    // mu of G~^-1 C~ (s = -1/mu) with imaginary parts exactly 0.
    circuit::RandomRcOptions rc_opts;
    rc_opts.unknowns = 120;
    const circuit::ParametricSystem systems[] = {
        circuit::assemble_mna(circuit::random_rc_net(rc_opts)),
        circuit::assemble_mna(circuit::clock_tree(circuit::rcnet_a_options())),
        testing::small_parametric_rc(60, 3, 5),
    };
    const auto s_points = make_s_points(12);
    for (const auto& sys : systems) {
        for (int order : {12, 26}) {
            const ReducedModel model = prima_rom(sys, order);
            const RomEvalEngine engine(model);
            RomEvalWorkspace ws;
            for (const auto& p : corners(model.num_params(), 0.3)) {
                engine.stamp_parameters(p, ws);
                for (const cplx& s : s_points) {
                    const ZMatrix h = engine.transfer(s, ws);
                    ASSERT_EQ(ws.lane(), RomLane::rc) << "q = " << order;
                    const ZMatrix ref = dense_reference(model, p, s);
                    EXPECT_LE(la::norm_max(h - ref), 1e-10 * la::norm_max(ref))
                        << "q = " << order << ", s = " << s;
                }
                std::vector<double> mus;
                for (const cplx& pole : engine.poles(ws)) {
                    EXPECT_EQ(pole.imag(), 0.0);
                    mus.push_back(-1.0 / pole.real());
                }
                std::vector<double> ref;
                double mu_max = 0.0;
                for (const cplx& mu : pencil_mus(model, p)) {
                    ref.push_back(mu.real());
                    mu_max = std::max(mu_max, std::abs(mu));
                }
                ASSERT_EQ(mus.size(), ref.size()) << "q = " << order;
                std::sort(mus.begin(), mus.end());
                std::sort(ref.begin(), ref.end());
                for (std::size_t k = 0; k < mus.size(); ++k)
                    EXPECT_LE(std::abs(mus[k] - ref[k]), 1e-10 * mu_max)
                        << "q = " << order << ", pole " << k;
            }
        }
    }
}

TEST(RomEvalEngine, RlcModelsKeepTheGeneralLane) {
    // The RC test fails on RLC models (G~ is not symmetric): below
    // kDirectPathOrder they run the direct lane, at and above it the
    // Hessenberg lane, and they never attempt (or count) an RC fallback.
    // Their poles come in complex pairs from the nonsymmetric solver.
    const long long fallbacks = rc_fallbacks();
    for (int order : {12, 24}) {
        const ReducedModel model = make_rlc_model(order);
        const RomEvalEngine engine(model);
        RomEvalWorkspace ws;
        const std::vector<double> p{0.3, -0.3};
        engine.stamp_parameters(p, ws);
        const cplx s(0.0, util::two_pi_f(2e9));
        const ZMatrix h = engine.transfer(s, ws);
        EXPECT_EQ(ws.lane(), order < RomEvalEngine::kDirectPathOrder ? RomLane::direct
                                                                    : RomLane::hessenberg);
        const ZMatrix ref = dense_reference(model, p, s);
        EXPECT_LE(la::norm_max(h - ref), 1e-10 * la::norm_max(ref));
        const std::vector<cplx> poles = engine.poles(ws);
        EXPECT_TRUE(std::any_of(poles.begin(), poles.end(),
                                [](cplx z) { return z.imag() != 0.0; }));
    }
    EXPECT_EQ(rc_fallbacks(), fallbacks);
}

TEST(RomEvalEngine, NonPassiveSampleFallsBackToTheGeneralLane) {
    // Far outside the validated region the affine G~(p) of an RC model turns
    // indefinite (conductances go negative): the ROM is not passive there,
    // Cholesky fails, and the sample runs on the general lanes — counted
    // once, still accurate, and still grid == loop bitwise.
    const ReducedModel model = make_model(80, 3, 7, 12);  // q = 24
    const std::vector<double> p{6.0, -6.0, 6.0};
    la::Matrix g = model.g_at(p);
    ASSERT_FALSE(la::cholesky_lower(g)) << "the sample must be non-passive";

    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    const long long before = rc_fallbacks();
    engine.stamp_parameters(p, ws);
    const cplx s(0.0, util::two_pi_f(1e9));
    const ZMatrix h = engine.transfer(s, ws);
    EXPECT_EQ(rc_fallbacks() - before, 1);
    EXPECT_EQ(ws.lane(), RomLane::hessenberg);
    const ZMatrix ref = dense_reference(model, p, s);
    EXPECT_LE(la::norm_max(h - ref), 1e-10 * la::norm_max(ref));

    const std::vector<std::vector<double>> samples{p, {0.1, -0.1, 0.05}, p};
    const auto s_points = make_s_points(5);
    const auto looped = looped_grid(model, samples, s_points);
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0)
            << "threads=" << threads;
}

TEST(RomEvalEngine, NegativeRealPartRunsTheDirectKernel) {
    // Re s < 0 is outside the class the unpivoted LDL^T is safe on, so an RC
    // sample evaluates such a point with the direct dense-pencil kernel.
    // Pinned bitwise against a general-lane twin: an asymmetric term on a
    // parameter stamped at exactly 0 leaves G~(p) unchanged but fails the RC
    // test, and at q < 20 the general lane IS the direct kernel.
    const ReducedModel model = make_model(30, 2, 23, 4);  // q = 8
    ReducedModel twin = model;
    twin.dg[0](0, 1) += 1.0;
    const std::vector<double> p{0.0, 0.2};
    const cplx s(-2e8, util::two_pi_f(1e9));

    const RomEvalEngine engine(model);
    const RomEvalEngine general(twin);
    RomEvalWorkspace ws, gws;
    engine.stamp_parameters(p, ws);
    general.stamp_parameters(p, gws);
    const ZMatrix h = engine.transfer(s, ws);
    EXPECT_EQ(ws.lane(), RomLane::rc);
    const ZMatrix hg = general.transfer(s, gws);
    EXPECT_EQ(gws.lane(), RomLane::direct);
    EXPECT_EQ(la::norm_max(h - hg), 0.0);
    const ZMatrix ref = dense_reference(model, p, s);
    EXPECT_LE(la::norm_max(h - ref), 1e-10 * la::norm_max(ref));
}

TEST(RomEvalEngine, SingularGFallsBackToDirectPencil) {
    // G~ singular but the pencil G~ + sC~ invertible at s != 0: a pure
    // capacitor. The Hessenberg split cannot form G~^-1 C~, so the engine
    // must fall back to per-frequency pencil factorization — and stay
    // bit-identical to the looped transfer() path (same branch, same values).
    ReducedModel m;
    m.g0 = la::Matrix{{0.0}};
    m.c0 = la::Matrix{{1.0}};
    m.b = la::Matrix{{1.0}};
    m.l = la::Matrix{{1.0}};
    const cplx s(0.0, 2.0);
    const RomEvalEngine engine(m);
    RomEvalWorkspace ws;
    engine.stamp_parameters({}, ws);
    const ZMatrix h = engine.transfer(s, ws);
    EXPECT_LE(std::abs(h(0, 0) - cplx(0.0, -0.5)), 1e-14);  // 1/(2i)
    EXPECT_EQ(h(0, 0), m.transfer(s, {})(0, 0));
}

TEST(RomEvalEngine, EmptyGridDimensions) {
    const ReducedModel model = make_model(20, 2, 5, 4);
    const RomEvalEngine engine(model);
    EXPECT_TRUE(engine.transfer_grid({}, make_s_points(3)).empty());
    const auto grid = engine.transfer_grid({{0.0, 0.0}}, {});
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_TRUE(grid[0].empty());
}

TEST(RomEvalEngine, DispatchBoundaryJustBelowDirectLimit) {
    // q = 19 < kDirectPathOrder = 20: the LAST general-lane order on the
    // direct lane, padded up to the 20-wide fixed-size kernel.
    const ReducedModel model = make_rlc_model(RomEvalEngine::kDirectPathOrder - 1);
    ASSERT_EQ(model.size(), RomEvalEngine::kDirectPathOrder - 1);
    expect_grid_bitwise_on_lane(model, RomLane::direct, 43);
}

TEST(RomEvalEngine, DispatchBoundaryAtDirectLimit) {
    // q = 20 == kDirectPathOrder: the FIRST general-lane order on the
    // Hessenberg path. Both dispatch arms must hold the loop-vs-grid bitwise
    // contract.
    const ReducedModel model = make_rlc_model(RomEvalEngine::kDirectPathOrder);
    ASSERT_EQ(model.size(), RomEvalEngine::kDirectPathOrder);
    expect_grid_bitwise_on_lane(model, RomLane::hessenberg, 47);
}

TEST(RomEvalEngine, SampleMajorChunkingBitIdenticalToLoop) {
    // ns >= nf flips transfer_grid into by-sample chunking (one lane
    // preparation per sample per chunk); the values must not notice. 17
    // samples x 2 frequencies exercises uneven chunk splits at 8 threads.
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(16, model.num_params(), 53);  // +nominal = 17
    const auto s_points = make_s_points(2);
    ASSERT_GE(samples.size(), s_points.size());

    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& sp : s_points) row.push_back(model.transfer(sp, p));
        looped.push_back(std::move(row));
    }
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0)
            << "threads=" << threads;
}

}  // namespace
}  // namespace varmor::mor
