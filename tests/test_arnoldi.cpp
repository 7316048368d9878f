#include <algorithm>
#include <gtest/gtest.h>

#include "la/eig.h"
#include "sparse/arnoldi.h"
#include "sparse/splu.h"
#include "test_helpers.h"

namespace varmor::sparse {
namespace {

using la::cplx;
using la::Matrix;
using la::Vector;
using varmor::testing::random_matrix;

TEST(Arnoldi, FindsDominantEigenvalueOfDiagonal) {
    const int n = 50;
    Matrix a(n, n);
    for (int i = 0; i < n; ++i) a(i, i) = 1.0 + i;  // dominant = 50
    ArnoldiOptions opts;
    opts.subspace = 30;
    ArnoldiResult r = arnoldi_eigenvalues(dense_operator(a), opts);
    ASSERT_FALSE(r.ritz_values.empty());
    EXPECT_NEAR(std::abs(r.ritz_values[0]), 50.0, 1e-6);
}

TEST(Arnoldi, ExactWhenSubspaceEqualsDimension) {
    util::Rng rng(1);
    const int n = 12;
    Matrix a = random_matrix(n, n, rng);
    ArnoldiOptions opts;
    opts.subspace = n;
    ArnoldiResult r = arnoldi_eigenvalues(dense_operator(a), opts);
    auto exact = la::eig_values(a);
    std::sort(exact.begin(), exact.end(),
              [](cplx x, cplx y) { return std::abs(x) > std::abs(y); });
    ASSERT_EQ(r.ritz_values.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i)
        EXPECT_LE(std::abs(r.ritz_values[i] - exact[i]), 1e-7 * (1 + std::abs(exact[i])))
            << "eigenvalue " << i;
}

TEST(Arnoldi, TopEigenvaluesOfSymmetricLadder) {
    // -G^-1 C operator for an RC ladder: eigenvalues are real negative-ish
    // magnitudes; Arnoldi's top Ritz values must match dense computation.
    const int n = 80;
    Triplets tg(n, n), tc(n, n);
    for (int i = 0; i < n; ++i) {
        tg.add(i, i, 2.0);
        if (i > 0) {
            tg.add(i, i - 1, -1.0);
            tg.add(i - 1, i, -1.0);
        }
        tc.add(i, i, 1.0 + 0.01 * i);
    }
    Csc g(tg), c(tc);
    SparseLu lu(g);
    LinearOperator op(
        n, n, [&](const Vector& x) { return lu.solve(c.apply(x)); },
        [&](const Vector& x) { return c.apply_transpose(lu.solve_transpose(x)); });

    ArnoldiOptions opts;
    opts.subspace = 50;
    ArnoldiResult r = arnoldi_eigenvalues(op, opts);

    Matrix dense_op = lu.solve(c.to_dense());
    auto exact = la::eig_values(dense_op);
    std::sort(exact.begin(), exact.end(),
              [](cplx x, cplx y) { return std::abs(x) > std::abs(y); });
    for (int i = 0; i < 5; ++i)
        EXPECT_LE(std::abs(r.ritz_values[static_cast<std::size_t>(i)] -
                           exact[static_cast<std::size_t>(i)]),
                  1e-6 * std::abs(exact[0]))
            << "Ritz value " << i;
}

TEST(Arnoldi, BreakdownOnLowRankOperatorIsExact) {
    // Rank-2 matrix: Krylov space exhausts after <= 3 steps; Ritz values are
    // then exact eigenvalues {nonzero pair, zeros}. The third step's vector
    // falls in the span by the relative rule of la::cgs2, so Arnoldi stops
    // there instead of running on normalized roundoff.
    util::Rng rng(2);
    const int n = 20;
    Vector u1(n), v1(n), u2(n), v2(n);
    for (int i = 0; i < n; ++i) {
        u1[i] = rng.uniform(-1, 1);
        v1[i] = rng.uniform(-1, 1);
        u2[i] = rng.uniform(-1, 1);
        v2[i] = rng.uniform(-1, 1);
    }
    Matrix a(n, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) a(i, j) = u1[i] * v1[j] + 0.1 * u2[i] * v2[j];
    ArnoldiOptions opts;
    opts.subspace = 15;
    ArnoldiResult r = arnoldi_eigenvalues(dense_operator(a), opts);
    auto exact = la::eig_values(a);
    std::sort(exact.begin(), exact.end(),
              [](cplx x, cplx y) { return std::abs(x) > std::abs(y); });
    EXPECT_LE(std::abs(r.ritz_values[0] - exact[0]), 1e-8 * (1 + std::abs(exact[0])));
    EXPECT_LE(r.ritz_values.size(), 3u);
    EXPECT_EQ(r.residuals[0], 0.0);  // an invariant subspace: exact
}

TEST(Arnoldi, NonSquareThrows) {
    util::Rng rng(3);
    EXPECT_THROW(arnoldi_eigenvalues(dense_operator(random_matrix(3, 4, rng))), Error);
}

class ArnoldiSubspaceProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArnoldiSubspaceProperty, DominantRitzValueConvergesMonotonically) {
    util::Rng rng(4);
    const int n = 60;
    Matrix a = random_matrix(n, n, rng);
    for (int i = 0; i < n; ++i) a(i, i) += 2.0 * i / n;  // spread spectrum
    auto exact = la::eig_values(a);
    double dominant = 0;
    for (const cplx& z : exact) dominant = std::max(dominant, std::abs(z));

    ArnoldiOptions opts;
    opts.subspace = GetParam();
    ArnoldiResult r = arnoldi_eigenvalues(dense_operator(a), opts);
    // With a healthy subspace the dominant Ritz value approximates |lambda_max|.
    if (opts.subspace >= 40)
        EXPECT_NEAR(std::abs(r.ritz_values[0]), dominant, 0.05 * dominant);
    else
        // Nonsymmetric Ritz values live in the field of values, which can
        // slightly exceed the spectral radius for small subspaces.
        EXPECT_LE(std::abs(r.ritz_values[0]), dominant * 1.2);
}

INSTANTIATE_TEST_SUITE_P(Subspaces, ArnoldiSubspaceProperty, ::testing::Values(10, 20, 40, 60));

}  // namespace
}  // namespace varmor::sparse
