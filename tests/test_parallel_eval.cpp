// Determinism and correctness of the parallel evaluation drivers: the
// batched sweep and Monte-Carlo studies must produce bit-identical results
// at any thread count, and agree with the pre-batching per-point
// re-factorization path to solver precision.

#include <gtest/gtest.h>

#include "analysis/freq_sweep.h"
#include "analysis/monte_carlo.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "la/ops.h"
#include "mor/lowrank_pmor.h"
#include "mor_test_utils.h"
#include "sparse/splu.h"
#include "util/constants.h"

namespace varmor::analysis {
namespace {

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

TEST(ParallelSweep, BitIdenticalAcrossThreadCounts) {
    const circuit::ParametricSystem sys = varmor::testing::small_parametric_rc(30, 2, 41);
    const std::vector<double> p{0.2, -0.15};
    const auto freqs = log_frequencies(1e-3, 10.0, 33);

    const auto ref = sweep_full(sys, p, freqs, 1);
    for (int threads : {2, 3, 5}) expect_bit_identical(ref, sweep_full(sys, p, freqs, threads));
}

TEST(ParallelSweep, MatchesPerPointRefactorizationPath) {
    // The legacy path: assemble the pencil and run a fresh symbolic + numeric
    // factorization at every point.
    const circuit::ParametricSystem sys = varmor::testing::small_parametric_rc(25, 2, 42);
    const std::vector<double> p{-0.1, 0.25};
    const auto freqs = log_frequencies(1e-3, 1.0, 11);

    const sparse::Csc g = sys.g_at(p);
    const sparse::Csc c = sys.c_at(p);
    const la::ZMatrix bz = la::to_complex(sys.b);
    const la::ZMatrix lzt = la::transpose(la::to_complex(sys.l));

    const auto fast = sweep_full(sys, p, freqs);
    ASSERT_EQ(fast.size(), freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        const la::cplx s(0.0, util::two_pi_f(freqs[i]));
        const sparse::ZSparseLu lu(sparse::pencil(g, c, s));
        const ZMatrix ref = la::matmul(lzt, lu.solve(bz));
        EXPECT_LE(la::norm_max(fast[i] - ref), 1e-10 * (1 + la::norm_max(ref)))
            << "f = " << freqs[i];
    }
}

TEST(ParallelSweep, SinglePointAndEmptySweep) {
    const circuit::ParametricSystem sys = varmor::testing::small_parametric_rc(10, 1, 43);
    EXPECT_TRUE(sweep_full(sys, {0.0}, {}).empty());
    const auto one = sweep_full(sys, {0.0}, {0.5});
    ASSERT_EQ(one.size(), 1u);
}

TEST(ParallelPoleStudy, BitIdenticalAcrossThreadCounts) {
    const circuit::ParametricSystem sys =
        assemble_mna(circuit::clock_tree(circuit::rcnet_a_options()));
    mor::LowRankPmorOptions mopts;
    mopts.s_order = 4;
    mopts.param_order = 2;
    mopts.rank = 2;
    const mor::LowRankPmorResult model = mor::lowrank_pmor(sys, mopts);

    MonteCarloOptions mc;
    mc.samples = 8;
    const auto samples = sample_parameters(3, mc);
    PoleOptions popts;
    popts.count = 4;

    const PoleErrorStudy serial = pole_error_study(sys, model.model, samples, popts, 1);
    for (int threads : {2, 4}) {
        const PoleErrorStudy parallel = pole_error_study(sys, model.model, samples, popts, threads);
        ASSERT_EQ(serial.flattened.size(), parallel.flattened.size());
        for (std::size_t i = 0; i < serial.flattened.size(); ++i)
            EXPECT_EQ(serial.flattened[i], parallel.flattened[i]) << "error " << i;
        EXPECT_EQ(serial.max_error, parallel.max_error);
        EXPECT_EQ(serial.mean_error, parallel.mean_error);
    }
}

TEST(LowRankPmor, SharedFactorizationReproducesResult) {
    const circuit::ParametricSystem sys = varmor::testing::small_parametric_rc(24, 2, 44);
    mor::LowRankPmorOptions opts;
    opts.s_order = 3;
    opts.param_order = 2;

    const mor::LowRankPmorResult plain = mor::lowrank_pmor(sys, opts);

    mor::LowRankPmorOptions shared = opts;
    shared.g0_factor = std::make_shared<const sparse::SparseLu>(sys.g0);
    const mor::LowRankPmorResult reused = mor::lowrank_pmor(sys, shared);

    ASSERT_EQ(plain.basis.cols(), reused.basis.cols());
    EXPECT_LE(la::norm_max(plain.basis - reused.basis), 1e-13);
    EXPECT_EQ(plain.sparse_solves, reused.sparse_solves);

    // Re-running on the same shared factor keeps the per-run solve count
    // (the counter is cumulative on the factor, not on the run).
    const mor::LowRankPmorResult again = mor::lowrank_pmor(sys, shared);
    EXPECT_EQ(again.sparse_solves, reused.sparse_solves);
}

}  // namespace
}  // namespace varmor::analysis
