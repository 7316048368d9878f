#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "la/eig.h"
#include "la/eig_sym.h"
#include "la/lu_dense.h"
#include "la/orth.h"
#include "test_helpers.h"
#include "util/constants.h"

namespace varmor::la {
namespace {

using testing::expect_near;
using testing::random_matrix;
using testing::random_spd_matrix;

TEST(EigSym, DiagonalMatrix) {
    Matrix a{{3.0, 0.0}, {0.0, -1.0}};
    SymEigResult e = eig_symmetric(a);
    EXPECT_NEAR(e.values[0], -1.0, 1e-13);
    EXPECT_NEAR(e.values[1], 3.0, 1e-13);
}

TEST(EigSym, HandComputed2x2) {
    // [[2,1],[1,2]] has eigenvalues 1 and 3.
    Matrix a{{2.0, 1.0}, {1.0, 2.0}};
    SymEigResult e = eig_symmetric(a);
    EXPECT_NEAR(e.values[0], 1.0, 1e-13);
    EXPECT_NEAR(e.values[1], 3.0, 1e-13);
}

TEST(EigSym, EigenEquationHolds) {
    util::Rng rng(1);
    Matrix a = symmetric_part(random_matrix(12, 12, rng));
    SymEigResult e = eig_symmetric(a);
    for (int j = 0; j < 12; ++j) {
        Vector v = e.vectors.col(j);
        Vector r = matvec(a, v) - e.values[static_cast<std::size_t>(j)] * v;
        EXPECT_LE(norm2(r), 1e-10 * (1 + std::abs(e.values[static_cast<std::size_t>(j)])));
    }
}

TEST(EigSym, VectorsOrthonormal) {
    util::Rng rng(2);
    Matrix a = symmetric_part(random_matrix(10, 10, rng));
    SymEigResult e = eig_symmetric(a);
    EXPECT_LE(orthonormality_error(e.vectors), 1e-11);
}

TEST(EigSym, TraceEqualsSum) {
    util::Rng rng(3);
    Matrix a = symmetric_part(random_matrix(15, 15, rng));
    SymEigResult e = eig_symmetric(a);
    double trace = 0, sum = 0;
    for (int i = 0; i < 15; ++i) trace += a(i, i);
    for (double v : e.values) sum += v;
    EXPECT_NEAR(trace, sum, 1e-10);
}

/// The n x n 1-D Laplacian tridiag(-1, 2, -1): eigenvalues
/// 2 - 2 cos(k pi / (n + 1)), k = 1..n.
Matrix laplacian(int n) {
    Matrix a(n, n);
    for (int i = 0; i < n; ++i) {
        a(i, i) = 2.0;
        if (i > 0) a(i, i - 1) = a(i - 1, i) = -1.0;
    }
    return a;
}

/// Q D Q^T for a random orthogonal Q: a full matrix with the spectrum `d`.
Matrix with_spectrum(const std::vector<double>& d, util::Rng& rng) {
    const int n = static_cast<int>(d.size());
    const Matrix q = orthonormalize(random_matrix(n, n, rng));
    Matrix qd = q;
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) qd(i, j) *= d[static_cast<std::size_t>(j)];
    return matmul(qd, transpose(q));
}

void expect_eigenpairs(const Matrix& a, const SymEigResult& e, double tol) {
    const int n = a.rows();
    for (int j = 0; j < n; ++j) {
        const Vector v = e.vectors.col(j);
        const Vector r = matvec(a, v) - e.values[static_cast<std::size_t>(j)] * v;
        EXPECT_LE(norm2(r), tol * (1.0 + norm_fro(a))) << "pair " << j;
    }
    EXPECT_LE(orthonormality_error(e.vectors), tol);
}

class EigSymLaplacian : public ::testing::TestWithParam<int> {};

TEST_P(EigSymLaplacian, AnalyticSpectrum) {
    // Already tridiagonal (every reflector is the identity) and, rotated by a
    // random orthogonal Q, full: both must give the analytic spectrum.
    const int n = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(n) + 100);
    const Matrix tri = laplacian(n);
    std::vector<double> expected;
    for (int k = 1; k <= n; ++k) expected.push_back(2.0 - 2.0 * std::cos(k * util::pi / (n + 1)));
    for (const Matrix& a : {tri, with_spectrum(expected, rng)}) {
        const SymEigResult e = eig_symmetric(a);
        ASSERT_EQ(e.values.size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_NEAR(e.values[k], expected[k], 1e-12) << "k = " << k + 1;
        expect_eigenpairs(a, e, 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, EigSymLaplacian, ::testing::Values(1, 2, 3, 12, 80));

TEST(EigSym, RepeatedEigenvalues) {
    util::Rng rng(8);
    const std::vector<double> spectrum{-1.0, 2.0, 2.0, 2.0, 5.0, 5.0, 7.0};
    const Matrix a = with_spectrum(spectrum, rng);
    const SymEigResult e = eig_symmetric(a);
    for (std::size_t k = 0; k < spectrum.size(); ++k)
        EXPECT_NEAR(e.values[k], spectrum[k], 1e-12) << "k = " << k;
    expect_eigenpairs(a, e, 1e-12);
    // A multiple of the identity is already diagonal: exact values.
    const SymEigResult id = eig_symmetric(3.0 * Matrix::identity(5));
    for (double v : id.values) EXPECT_EQ(v, 3.0);
    // Extreme magnitudes: squares of 1e-170 underflow and of 1e170 overflow.
    for (double scale : {1e-170, 1e170}) {
        const SymEigResult e_scaled = eig_symmetric(scale * a);
        for (std::size_t k = 0; k < spectrum.size(); ++k)
            EXPECT_NEAR(e_scaled.values[k] / scale, spectrum[k], 1e-12) << "scale " << scale;
    }
}

TEST(EigSymBlocks, CholeskyLowerRejectsIndefinite) {
    Matrix a{{4.0, 2.0}, {2.0, 1.0 - 1e-3}};
    EXPECT_FALSE(cholesky_lower(a));
    Matrix nan_pivot{{std::nan(""), 0.0}, {0.0, 1.0}};
    EXPECT_FALSE(cholesky_lower(nan_pivot));
    util::Rng rng(9);
    const Matrix spd = random_spd_matrix(9, rng);
    Matrix l = spd;
    ASSERT_TRUE(cholesky_lower(l));
    for (int j = 0; j < 9; ++j)
        for (int i = 0; i < j; ++i) l(i, j) = 0.0;  // strict upper is untouched input
    expect_near(matmul(l, transpose(l)), spd, 1e-12 * norm_fro(spd));
}

TEST(EigSymBlocks, SymmetricDefinitePencilMatchesNonsymmetricSolver) {
    // The RC lane's pipeline on (A, B): B = L L^T, T = L^-1 A L^-T, then
    // tridiagonal QL gives the eigenvalues of B^-1 A; the carried B block
    // ends as Q^T L^-1 B with Y^T Y = B^T B^-1 B = B.
    util::Rng rng(10);
    const int n = 11;
    const Matrix a = symmetric_part(random_matrix(n, n, rng));
    const Matrix b = random_spd_matrix(n, rng);
    Matrix l = b, t = a, y = b;
    ASSERT_TRUE(cholesky_lower(l));
    reduce_to_standard(t, l);
    forward_substitute(l, y);
    std::vector<double> d, e, w;
    tridiagonalize(t, d, e, &y, w);
    expect_near(matmul_transA(y, y), b, 1e-11 * norm_fro(b));
    tridiagonal_ql(d, e, nullptr);
    std::sort(d.begin(), d.end());
    std::vector<double> ref;
    for (const cplx& mu : eig_values(DenseLu<double>(b).solve(a))) {
        EXPECT_EQ(mu.imag(), 0.0);
        ref.push_back(mu.real());
    }
    std::sort(ref.begin(), ref.end());
    for (int k = 0; k < n; ++k)
        EXPECT_NEAR(d[static_cast<std::size_t>(k)], ref[static_cast<std::size_t>(k)],
                    1e-10 * (1.0 + std::abs(ref[static_cast<std::size_t>(k)])));
}

class EigSymProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigSymProperty, SpdHasPositiveSpectrum) {
    const int n = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(n) * 13);
    Matrix a = random_spd_matrix(n, rng);
    SymEigResult e = eig_symmetric(a);
    for (double v : e.values) EXPECT_GT(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSymProperty, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace varmor::la
