#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "la/orth.h"
#include "reference_kernels.h"
#include "test_helpers.h"

namespace varmor::la {
namespace {

using testing::random_matrix;

TEST(Orth, ProducesOrthonormalColumns) {
    util::Rng rng(1);
    Matrix a = random_matrix(10, 6, rng);
    Matrix v = orthonormalize(a);
    EXPECT_EQ(v.cols(), 6);
    EXPECT_LE(orthonormality_error(v), 1e-12);
}

TEST(Orth, PreservesSpan) {
    util::Rng rng(2);
    Matrix a = random_matrix(8, 3, rng);
    Matrix v = orthonormalize(a);
    // Every column of A must be reproduced by V V^T a.
    for (int j = 0; j < a.cols(); ++j) {
        Vector x = a.col(j);
        Vector proj = matvec(v, matvec_transpose(v, x));
        EXPECT_LE(norm2(x - proj), 1e-11 * (1 + norm2(x)));
    }
}

TEST(Orth, DeflatesDependentColumns) {
    util::Rng rng(3);
    Matrix a = random_matrix(6, 2, rng);
    // Append an exact linear combination: must be dropped.
    Matrix ext(6, 3);
    for (int i = 0; i < 6; ++i) {
        ext(i, 0) = a(i, 0);
        ext(i, 1) = a(i, 1);
        ext(i, 2) = 2.0 * a(i, 0) - 3.0 * a(i, 1);
    }
    Matrix v = orthonormalize(ext);
    EXPECT_EQ(v.cols(), 2);
}

TEST(Orth, DropsZeroColumns) {
    Matrix a(5, 2);
    a(0, 1) = 1.0;
    Matrix v = orthonormalize(a);
    EXPECT_EQ(v.cols(), 1);
}

TEST(Orth, ExtendBasisKeepsExistingColumnsIntact) {
    util::Rng rng(4);
    Matrix v0 = orthonormalize(random_matrix(9, 3, rng));
    Matrix extra = random_matrix(9, 2, rng);
    Matrix v = extend_basis(v0, extra);
    ASSERT_GE(v.cols(), 3);
    for (int j = 0; j < 3; ++j)
        for (int i = 0; i < 9; ++i) EXPECT_EQ(v(i, j), v0(i, j));
    EXPECT_LE(orthonormality_error(v), 1e-12);
}

TEST(Orth, ExtendBasisDeflatesContainedDirections) {
    util::Rng rng(5);
    Matrix v0 = orthonormalize(random_matrix(9, 4, rng));
    // Directions inside span(v0) add nothing.
    Matrix inside = matmul(v0, random_matrix(4, 3, rng));
    Matrix v = extend_basis(v0, inside);
    EXPECT_EQ(v.cols(), 4);
}

TEST(Orth, RowMismatchThrows) {
    Matrix v0(5, 2);
    Matrix extra(6, 1);
    EXPECT_THROW(extend_basis(v0, extra), Error);
}

class OrthProperty : public ::testing::TestWithParam<int> {};

TEST_P(OrthProperty, NearDependentColumnsStayWellConditioned) {
    const int n = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(n) * 7 + 1);
    // Krylov-like sequence: columns converge toward the dominant eigenvector,
    // the classic pathological input for naive Gram-Schmidt.
    Matrix a = testing::random_dd_matrix(n, rng);
    Matrix k(n, 8 < n ? 8 : n);
    Vector x(n);
    for (int i = 0; i < n; ++i) x[i] = rng.uniform(-1, 1);
    for (int j = 0; j < k.cols(); ++j) {
        k.set_col(j, x);
        x = matvec(a, x);
        scale(x, 1.0 / norm2(x));
    }
    Matrix v = orthonormalize(k);
    EXPECT_LE(orthonormality_error(v), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OrthProperty, ::testing::Values(8, 16, 32, 64, 128));

Vector random_vector(int n, util::Rng& rng) {
    Vector v(n);
    for (int i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
    return v;
}

class Cgs2Kernel : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Cgs2Kernel, MatchesTwoMgsPassesAndSumsTheCoefficients) {
    const auto [n, k] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(n * 131 + k));
    const Matrix basis = orthonormalize(random_matrix(n, k, rng));
    ASSERT_EQ(basis.cols(), k);
    ASSERT_LE(orthonormality_error(basis), 1e-14);
    const Vector w0 = random_vector(n, rng);

    Vector w = w0;
    std::vector<double> coef(static_cast<std::size_t>(k)), work(coef.size());
    const double remaining = cgs2(basis, k, w, coef.data(), work.data());

    Vector ref = w0;
    std::vector<double> ref_coef(coef.size(), 0.0);
    for (int pass = 0; pass < 2; ++pass) mgs_pass_naive(basis, k, ref, ref_coef.data());

    const double tol = 1e-13 * norm2(w0);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(w[i], ref[i], tol) << "row " << i;
    EXPECT_EQ(remaining, norm2(w));
    const Vector vtw = matvec_transpose(basis, w0);
    for (int j = 0; j < k; ++j) {
        EXPECT_NEAR(coef[static_cast<std::size_t>(j)], vtw[j], tol) << "column " << j;
        EXPECT_NEAR(coef[static_cast<std::size_t>(j)], ref_coef[static_cast<std::size_t>(j)], tol);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Cgs2Kernel,
                         ::testing::Values(std::make_tuple(7, 0), std::make_tuple(9, 3),
                                           std::make_tuple(64, 20), std::make_tuple(1500, 80)));

TEST(Cgs2, DependenceRuleIsRelativeToTheInputNorm) {
    // A w within drop_tol of the span gives exactly 0 at any magnitude; an
    // absolute threshold such as 1e-300 would call the in-span w at 1e-100
    // independent, since its roundoff residue is about 1e-116.
    util::Rng rng(8);
    const int n = 40, k = 6;
    const Matrix basis = orthonormalize(random_matrix(n, k, rng));
    std::vector<double> coef(static_cast<std::size_t>(k)), work(coef.size());
    Vector out = random_vector(n, rng);
    scale(out, 1.0 / cgs2(basis, k, out, coef.data(), work.data()));  // unit, off the span
    const Vector in = matvec(basis, random_vector(k, rng));
    for (double magnitude : {1e-100, 1.0, 1e100}) {
        for (double offset : {0.0, 1e-13, 1e-7}) {
            SCOPED_TRACE(::testing::Message() << magnitude << " " << offset);
            Vector w = in;
            axpy(offset, out, w);
            scale(w, magnitude);
            const double remaining = cgs2(basis, k, w, coef.data(), work.data());
            if (offset < kDropTol)
                EXPECT_EQ(remaining, 0.0);
            else
                EXPECT_NEAR(remaining, offset * magnitude, 1e-6 * offset * magnitude);
        }
    }
    Vector zero(n);  // a zero vector is in every span, the empty one too
    EXPECT_EQ(cgs2(basis, 0, zero, coef.data(), work.data()), 0.0);
}

}  // namespace
}  // namespace varmor::la
