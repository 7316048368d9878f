#include <gtest/gtest.h>

#include "analysis/poles.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "mor/lowrank_pmor.h"
#include "mor_test_utils.h"

namespace varmor::analysis {
namespace {

using la::cplx;

TEST(Poles, SingleRcAnalyticPole) {
    circuit::Netlist net;
    const int a = net.add_node();
    net.add_resistor(a, 0, 2.0);
    net.add_capacitor(a, 0, 0.5);
    net.add_port(a);
    circuit::ParametricSystem sys = assemble_mna(net);
    auto poles = dominant_poles(sys.g0, sys.c0, {});
    ASSERT_GE(poles.size(), 1u);
    EXPECT_NEAR(poles[0].real(), -1.0, 1e-10);  // -g/c = -(0.5)/(0.5)
}

TEST(Poles, ArnoldiMatchesDenseOnMediumRcTree) {
    circuit::RandomRcOptions o;
    o.unknowns = 300;
    circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(o));

    PoleOptions dense_opts;
    dense_opts.use_dense = true;
    dense_opts.count = 5;
    auto exact = dominant_poles(sys.g0, sys.c0, dense_opts);

    PoleOptions arnoldi_opts;
    arnoldi_opts.count = 5;
    arnoldi_opts.subspace = 70;
    auto approx = dominant_poles(sys.g0, sys.c0, arnoldi_opts);

    ASSERT_EQ(exact.size(), approx.size());
    for (std::size_t i = 0; i < exact.size(); ++i)
        EXPECT_LE(std::abs(exact[i] - approx[i]), 1e-5 * std::abs(exact[i]))
            << "pole " << i;
}

TEST(Poles, DominanceOrdering) {
    circuit::ParametricSystem sys =
        assemble_mna(circuit::clock_tree(circuit::rcnet_a_options()));
    auto poles = dominant_poles(sys.g0, sys.c0, {});
    for (std::size_t i = 0; i + 1 < poles.size(); ++i)
        EXPECT_LE(std::abs(poles[i]), std::abs(poles[i + 1]) * (1 + 1e-9));
}

TEST(Poles, ReducedModelTracksFullPolesOnClockTree) {
    circuit::ParametricSystem sys =
        assemble_mna(circuit::clock_tree(circuit::rcnet_a_options()));
    mor::LowRankPmorOptions opts;
    opts.s_order = 4;
    opts.param_order = 2;
    opts.rank = 2;  // our per-layer width parameters need rank 2: see README,
                    // "SVD ranks of the clock-tree benches"
    mor::LowRankPmorResult r = mor::lowrank_pmor(sys, opts);

    const std::vector<double> p{0.15, -0.2, 0.1};
    PoleOptions popts;
    popts.count = 5;
    auto full = dominant_poles_at(sys, p, popts);
    auto reduced = dominant_poles_reduced(r.model, p, 10);
    auto errors = pole_match_errors(full, reduced);
    for (double e : errors) EXPECT_LT(e, 5e-3);  // paper reports < 0.3%
}

TEST(PoleMatch, PairsGreedilyByCloseness) {
    std::vector<cplx> full{cplx(-1, 0), cplx(-2, 0)};
    std::vector<cplx> reduced{cplx(-2.02, 0), cplx(-1.01, 0)};
    auto errors = pole_match_errors(full, reduced);
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_NEAR(errors[0], 0.01, 1e-12);
    EXPECT_NEAR(errors[1], 0.01, 1e-12);
}

TEST(PoleMatch, MissingReducedPoleGivesInfiniteError) {
    std::vector<cplx> full{cplx(-1, 0), cplx(-2, 0)};
    std::vector<cplx> reduced{cplx(-1, 0)};
    auto errors = pole_match_errors(full, reduced);
    EXPECT_TRUE(std::isinf(errors[1]));
}

TEST(Poles, InvalidCountThrows) {
    circuit::ParametricSystem sys = varmor::testing::small_parametric_rc(10, 0, 81, 1);
    PoleOptions bad;
    bad.count = 0;
    EXPECT_THROW(dominant_poles(sys.g0, sys.c0, bad), Error);
}

}  // namespace
}  // namespace varmor::analysis
