#include <gtest/gtest.h>

#include "la/orth.h"
#include "la/svd.h"
#include "sparse/linear_operator.h"
#include "sparse/splu.h"
#include "sparse/svd_iterative.h"
#include "test_helpers.h"

namespace varmor::sparse {
namespace {

using la::Matrix;
using la::Vector;
using varmor::testing::random_matrix;

TEST(DenseOperator, MatchesMatrix) {
    util::Rng rng(1);
    Matrix a = random_matrix(6, 4, rng);
    LinearOperator op = dense_operator(a);
    EXPECT_EQ(op.rows(), 6);
    EXPECT_EQ(op.cols(), 4);
    Vector x(4);
    for (int i = 0; i < 4; ++i) x[i] = rng.uniform(-1, 1);
    EXPECT_LE(la::norm2(op.apply(x) - la::matvec(a, x)), 1e-14);
    Vector y(6);
    for (int i = 0; i < 6; ++i) y[i] = rng.uniform(-1, 1);
    EXPECT_LE(la::norm2(op.apply_transpose(y) - la::matvec_transpose(a, y)), 1e-14);
}

TEST(LinearOperator, DimensionChecks) {
    util::Rng rng(2);
    LinearOperator op = dense_operator(random_matrix(3, 5, rng));
    EXPECT_THROW(op.apply(Vector(3)), Error);
    EXPECT_THROW(op.apply_transpose(Vector(5)), Error);
}

class TruncatedSvdEngines
    : public ::testing::TestWithParam<bool> {};  // true = lanczos, false = randomized

la::SvdResult run_engine(bool lanczos, const LinearOperator& op, int rank) {
    return lanczos ? truncated_svd_lanczos(op, rank) : truncated_svd_randomized(op, rank);
}

TEST_P(TruncatedSvdEngines, MatchesDenseSvdLeadingValues) {
    util::Rng rng(3);
    Matrix a = random_matrix(40, 30, rng);
    la::SvdResult dense = la::svd(a);
    la::SvdResult t = run_engine(GetParam(), dense_operator(a), 3);
    ASSERT_GE(static_cast<int>(t.s.size()), 3);
    // A random matrix has an almost flat spectrum: the Lanczos engine still
    // resolves it sharply, the randomized range finder is accurate to the
    // usual (sigma_{k+1}/sigma_k)-limited factor.
    const double tol = GetParam() ? 1e-6 : 5e-2;
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(t.s[static_cast<std::size_t>(i)], dense.s[static_cast<std::size_t>(i)],
                    tol * dense.s[0]);
}

TEST_P(TruncatedSvdEngines, FactorsOrthonormalAndAccurate) {
    util::Rng rng(4);
    // Rapidly decaying spectrum (like generalized sensitivity matrices).
    const int n = 50;
    Matrix u0 = la::orthonormalize(random_matrix(n, 5, rng));
    Matrix v0 = la::orthonormalize(random_matrix(n, 5, rng));
    Matrix a(n, n);
    const double sv[5] = {100.0, 10.0, 1.0, 0.1, 0.01};
    for (int k = 0; k < 5; ++k)
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < n; ++i) a(i, j) += sv[k] * u0(i, k) * v0(j, k);

    la::SvdResult t = run_engine(GetParam(), dense_operator(a), 2);
    EXPECT_LE(la::orthonormality_error(t.u), 1e-8);
    EXPECT_LE(la::orthonormality_error(t.v), 1e-8);
    EXPECT_NEAR(t.s[0], 100.0, 1e-4);
    EXPECT_NEAR(t.s[1], 10.0, 1e-4);
    // Rank-2 reconstruction error ~ sigma_3 = 1.
    Matrix rec = la::svd_reconstruct(t);
    EXPECT_LE(la::norm_fro(a - rec), 1.5);
}

TEST_P(TruncatedSvdEngines, RankOneOfOuterProduct) {
    util::Rng rng(5);
    const int m = 30, n = 20;
    Vector u(m), v(n);
    for (int i = 0; i < m; ++i) u[i] = rng.uniform(-1, 1);
    for (int i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
    Matrix a(m, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) a(i, j) = u[i] * v[j];
    la::SvdResult t = run_engine(GetParam(), dense_operator(a), 1);
    EXPECT_NEAR(t.s[0], la::norm2(u) * la::norm2(v), 1e-8);
    EXPECT_LE(la::norm_fro(a - la::svd_reconstruct(t)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Engines, TruncatedSvdEngines, ::testing::Values(true, false));

TEST(TruncatedSvd, MatrixImplicitGeneralizedSensitivity) {
    // The production shape: M = G0^-1 G1 exposed only through solves. The
    // Lanczos engine must agree with the dense SVD of the explicit product.
    util::Rng rng(6);
    const int n = 40;
    Triplets tg(n, n), tg1(n, n);
    for (int i = 0; i < n; ++i) {
        tg.add(i, i, 2.0 + rng.uniform(0, 1));
        if (i > 0) {
            tg.add(i, i - 1, -1.0);
            tg.add(i - 1, i, -1.0);
        }
        if (i % 3 == 0) tg1.add(i, i, rng.uniform(0.5, 1.0));  // sparse sensitivity
    }
    Csc g0(tg), g1(tg1);
    SparseLu lu(g0);
    LinearOperator op(
        n, n, [&](const Vector& x) { return lu.solve(g1.apply(x)); },
        [&](const Vector& x) { return g1.apply_transpose(lu.solve_transpose(x)); });

    Matrix dense_product = lu.solve(g1.to_dense());
    la::SvdResult expected = la::svd(dense_product);
    la::SvdResult got = truncated_svd_lanczos(op, 3);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(got.s[static_cast<std::size_t>(i)], expected.s[static_cast<std::size_t>(i)],
                    1e-7 * (expected.s[0] + 1e-30));
}

TEST(TruncatedSvd, LowRankOperatorStopsWhenItsKrylovSpaceIsExhausted) {
    // A rank-r operator's Krylov space is exhausted after r steps: apply
    // r + 1 lands in span(U), alpha_r = 0 ends the bidiagonalization with
    // beta_{r-1} kept in B, and the singular values are exact.
    for (int r = 1; r <= 2; ++r) {
        SCOPED_TRACE(r);
        util::Rng rng(static_cast<std::uint64_t>(10 + r));
        const int m = 30, n = 20;
        const Matrix a = la::matmul(random_matrix(m, r, rng), random_matrix(r, n, rng));
        int applies = 0, transposes = 0;
        const LinearOperator op(
            m, n,
            [&](const Vector& x) {
                ++applies;
                return la::matvec(a, x);
            },
            [&](const Vector& y) {
                ++transposes;
                return la::matvec_transpose(a, y);
            });
        const la::SvdResult got = truncated_svd_lanczos(op, r);
        EXPECT_LE(applies, r + 1);
        EXPECT_LE(transposes, r);
        const la::SvdResult dense = la::svd(a);
        ASSERT_EQ(static_cast<int>(got.s.size()), r);
        for (int i = 0; i < r; ++i)
            EXPECT_NEAR(got.s[static_cast<std::size_t>(i)], dense.s[static_cast<std::size_t>(i)],
                        1e-12 * dense.s[0]);
        EXPECT_LE(la::orthonormality_error(got.u), 1e-12);
        EXPECT_LE(la::orthonormality_error(got.v), 1e-12);
    }
}

TEST(TruncatedSvd, InvalidRankThrows) {
    util::Rng rng(7);
    LinearOperator op = dense_operator(random_matrix(4, 4, rng));
    EXPECT_THROW(truncated_svd_lanczos(op, 0), Error);
    EXPECT_THROW(truncated_svd_randomized(op, 0), Error);
}

TEST(TruncatedSvd, NoTransposeThrows) {
    LinearOperator op(3, 3, [](const Vector& x) { return x; }, nullptr);
    EXPECT_THROW(truncated_svd_lanczos(op, 1), Error);
}

}  // namespace
}  // namespace varmor::sparse
