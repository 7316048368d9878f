#include <gtest/gtest.h>

#include <tuple>

#include "la/dense.h"
#include "la/ops.h"
#include "reference_kernels.h"
#include "test_helpers.h"

namespace varmor::la {
namespace {

using testing::expect_near;
using testing::random_matrix;
using testing::random_zmatrix;

TEST(Dense, ConstructionAndAccess) {
    Matrix a(2, 3);
    EXPECT_EQ(a.rows(), 2);
    EXPECT_EQ(a.cols(), 3);
    EXPECT_EQ(a(1, 2), 0.0);
    a(1, 2) = 5.0;
    EXPECT_EQ(a(1, 2), 5.0);
}

TEST(Dense, InitializerList) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(a(0, 0), 1.0);
    EXPECT_EQ(a(0, 1), 2.0);
    EXPECT_EQ(a(1, 0), 3.0);
    EXPECT_EQ(a(1, 1), 4.0);
}

TEST(Dense, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Dense, NegativeDimensionThrows) {
    EXPECT_THROW(Matrix(-1, 2), Error);
    EXPECT_THROW(Vector(-3), Error);
}

TEST(Dense, Identity) {
    Matrix i3 = Matrix::identity(3);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) EXPECT_EQ(i3(i, j), i == j ? 1.0 : 0.0);
}

TEST(Dense, ColumnMajorLayout) {
    Matrix a{{1.0, 3.0}, {2.0, 4.0}};
    // Column 0 = (1, 2), contiguous.
    EXPECT_EQ(a.col_data(0)[0], 1.0);
    EXPECT_EQ(a.col_data(0)[1], 2.0);
    EXPECT_EQ(a.col_data(1)[0], 3.0);
    EXPECT_EQ(a.col_data(1)[1], 4.0);
}

TEST(Dense, ColRoundTrip) {
    util::Rng rng(11);
    Matrix a = random_matrix(5, 4, rng);
    Vector c = a.col(2);
    Matrix b = a;
    b.set_col(2, c);
    expect_near(a, b, 0.0);
}

TEST(Dense, ColsRange) {
    util::Rng rng(12);
    Matrix a = random_matrix(4, 6, rng);
    Matrix mid = a.cols_range(2, 3);
    ASSERT_EQ(mid.cols(), 3);
    for (int j = 0; j < 3; ++j)
        for (int i = 0; i < 4; ++i) EXPECT_EQ(mid(i, j), a(i, j + 2));
    EXPECT_THROW(a.cols_range(4, 3), Error);
}

TEST(Ops, DotAndNorm) {
    Vector x{3.0, 4.0};
    EXPECT_DOUBLE_EQ(norm2(x), 5.0);
    Vector y{1.0, 2.0};
    EXPECT_DOUBLE_EQ(dot(x, y), 11.0);
}

TEST(Ops, ComplexDotConjugatesLeft) {
    ZVector x{cplx(0, 1)};
    ZVector y{cplx(0, 1)};
    // x^H y = conj(i) * i = 1.
    EXPECT_EQ(dot(x, y), cplx(1, 0));
}

TEST(Ops, MatVec) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Vector x{1.0, 1.0};
    Vector y = matvec(a, x);
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
    Vector yt = matvec_transpose(a, x);
    EXPECT_DOUBLE_EQ(yt[0], 4.0);
    EXPECT_DOUBLE_EQ(yt[1], 6.0);
}

TEST(Ops, MatMulAgainstHandComputed) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix c = matmul(a, b);
    Matrix expected{{19.0, 22.0}, {43.0, 50.0}};
    expect_near(c, expected, 1e-15);
}

TEST(Ops, MatMulTransAEqualsExplicitTranspose) {
    util::Rng rng(5);
    Matrix a = random_matrix(6, 3, rng);
    Matrix b = random_matrix(6, 4, rng);
    expect_near(matmul_transA(a, b), matmul(transpose(a), b), 1e-13);
}

/// The blocked kernels must agree with the unblocked reference loops on
/// every remainder path: sizes straddling the 4-wide j/i blocks and the
/// 2-wide k block, including degenerate 1-row/1-column shapes.
class BlockedMatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockedMatmulShapes, MatchesNaiveReference) {
    const auto [m, k, n] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    const double scale = 1.0 + norm_max(matmul_naive(a, b));
    expect_near(matmul(a, b), matmul_naive(a, b), 1e-13 * scale, "matmul");

    const Matrix at = random_matrix(k, m, rng);  // shared rows with bt below
    const Matrix bt = random_matrix(k, n, rng);
    const double tscale = 1.0 + norm_max(matmul_transA_naive(at, bt));
    expect_near(matmul_transA(at, bt), matmul_transA_naive(at, bt), 1e-13 * tscale,
                "matmul_transA");
}

INSTANTIATE_TEST_SUITE_P(
    RectangularAndOdd, BlockedMatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 4, 4), std::make_tuple(5, 4, 3),
                      std::make_tuple(8, 2, 9), std::make_tuple(13, 17, 11),
                      std::make_tuple(1, 12, 4), std::make_tuple(12, 1, 5),
                      std::make_tuple(6, 9, 1), std::make_tuple(33, 47, 29)));

TEST(Ops, BlockedMatmulComplexMatchesNaive) {
    util::Rng rng(44);
    const ZMatrix a = random_zmatrix(9, 13, rng);
    const ZMatrix b = random_zmatrix(13, 6, rng);
    EXPECT_LE(norm_max(matmul(a, b) - matmul_naive(a, b)),
              1e-13 * (1.0 + norm_max(matmul_naive(a, b))));
    const ZMatrix at = random_zmatrix(13, 9, rng);
    EXPECT_LE(norm_max(matmul_transA(at, b) - matmul_transA_naive(at, b)),
              1e-13 * (1.0 + norm_max(matmul_transA_naive(at, b))));
}

TEST(Ops, MatmulIntoReusesStorageAndMatchesMatmul) {
    util::Rng rng(45);
    const Matrix a = random_matrix(7, 5, rng);
    const Matrix b = random_matrix(5, 6, rng);
    Matrix c(7, 6, 99.0);  // stale contents must be overwritten, not added to
    matmul_into(a, b, c);
    expect_near(c, matmul(a, b), 0.0);
    // Shape mismatch: resized, then exact again.
    Matrix d(2, 2);
    matmul_into(a, b, d);
    expect_near(d, matmul(a, b), 0.0);
}

TEST(Ops, TransposeInvolution) {
    util::Rng rng(6);
    Matrix a = random_matrix(5, 7, rng);
    expect_near(transpose(transpose(a)), a, 0.0);
}

TEST(Ops, HcatShapes) {
    util::Rng rng(7);
    Matrix a = random_matrix(3, 2, rng);
    Matrix b = random_matrix(3, 4, rng);
    Matrix c = hcat(a, b);
    ASSERT_EQ(c.cols(), 6);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(c(i, 0), a(i, 0));
        EXPECT_EQ(c(i, 2), b(i, 0));
    }
    Matrix empty(3, 0);
    expect_near(hcat(empty, a), a, 0.0);
    expect_near(hcat(a, empty), a, 0.0);
}

TEST(Ops, PencilCombinesGAndC) {
    Matrix g{{1.0, 0.0}, {0.0, 2.0}};
    Matrix c{{0.5, 0.0}, {0.0, 0.5}};
    ZMatrix z = pencil(g, c, cplx(0, 2.0));
    EXPECT_EQ(z(0, 0), cplx(1.0, 1.0));
    EXPECT_EQ(z(1, 1), cplx(2.0, 1.0));
}

TEST(Ops, SymmetricPart) {
    Matrix a{{1.0, 2.0}, {0.0, 3.0}};
    Matrix s = symmetric_part(a);
    EXPECT_DOUBLE_EQ(s(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(s(0, 0), 1.0);
}

TEST(Ops, NormFrobenius) {
    Matrix a{{3.0, 0.0}, {0.0, 4.0}};
    EXPECT_DOUBLE_EQ(norm_fro(a), 5.0);
}

TEST(Ops, DimensionMismatchThrows) {
    Matrix a(2, 3);
    Matrix b(4, 2);
    EXPECT_THROW(matmul(a, b), Error);
    Vector x(5);
    EXPECT_THROW(matvec(a, x), Error);
    EXPECT_THROW(a + b, Error);
}

// Property sweep: (AB)^T = B^T A^T over several shapes.
class MatMulProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulProperty, TransposeOfProduct) {
    auto [m, k, n] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n));
    Matrix a = random_matrix(m, k, rng);
    Matrix b = random_matrix(k, n, rng);
    expect_near(transpose(matmul(a, b)), matmul(transpose(b), transpose(a)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulProperty,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                                           std::tuple{5, 5, 5}, std::tuple{7, 2, 9},
                                           std::tuple{10, 1, 10}, std::tuple{16, 8, 4}));

}  // namespace
}  // namespace varmor::la
