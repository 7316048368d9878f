#include <gtest/gtest.h>

#include "sparse/csc.h"
#include "test_helpers.h"

namespace varmor::sparse {
namespace {

using la::Matrix;
using la::Vector;
using varmor::testing::expect_near;
using varmor::testing::random_matrix;

Csc random_sparse(int n, double density, util::Rng& rng) {
    Triplets t(n, n);
    for (int j = 0; j < n; ++j) {
        t.add(j, j, rng.uniform(1.0, 2.0) + n);  // strong diagonal
        for (int i = 0; i < n; ++i)
            if (i != j && rng.chance(density)) t.add(i, j, rng.uniform(-1.0, 1.0));
    }
    return Csc(t);
}

TEST(Triplets, DuplicatesAccumulate) {
    Triplets t(2, 2);
    t.add(0, 0, 1.5);
    t.add(0, 0, 2.5);
    t.add(1, 0, -1.0);
    Csc a(t);
    EXPECT_EQ(a.nnz(), 2);
    Matrix d = a.to_dense();
    EXPECT_DOUBLE_EQ(d(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(d(1, 0), -1.0);
}

TEST(Triplets, OutOfRangeThrows) {
    Triplets t(2, 2);
    EXPECT_THROW(t.add(2, 0, 1.0), Error);
    EXPECT_THROW(t.add(0, -1, 1.0), Error);
}

TEST(Triplets, CancellationDropsEntry) {
    Triplets t(2, 2);
    t.add(0, 1, 3.0);
    t.add(0, 1, -3.0);
    t.add(1, 1, 1.0);
    Csc a(t);
    EXPECT_EQ(a.nnz(), 1);
}

TEST(Csc, RowIndicesSortedWithinColumns) {
    util::Rng rng(1);
    Csc a = random_sparse(20, 0.3, rng);
    for (int j = 0; j < a.cols(); ++j)
        for (int p = a.col_ptr()[static_cast<std::size_t>(j)] + 1;
             p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p)
            EXPECT_LT(a.row_idx()[static_cast<std::size_t>(p) - 1],
                      a.row_idx()[static_cast<std::size_t>(p)]);
}

TEST(Csc, ApplyMatchesDense) {
    util::Rng rng(2);
    Csc a = random_sparse(15, 0.25, rng);
    Matrix d = a.to_dense();
    Vector x(15);
    for (int i = 0; i < 15; ++i) x[i] = rng.uniform(-1, 1);
    EXPECT_LE(la::norm2(a.apply(x) - la::matvec(d, x)), 1e-12);
    EXPECT_LE(la::norm2(a.apply_transpose(x) - la::matvec_transpose(d, x)), 1e-12);
}

TEST(Csc, TransposeMatchesDense) {
    util::Rng rng(3);
    Csc a = random_sparse(12, 0.3, rng);
    expect_near(transpose(a).to_dense(), la::transpose(a.to_dense()), 0.0);
}

TEST(Csc, AddWithDifferentPatterns) {
    Triplets ta(2, 2), tb(2, 2);
    ta.add(0, 0, 1.0);
    tb.add(1, 1, 2.0);
    tb.add(0, 0, 3.0);
    Csc c = add(2.0, Csc(ta), -1.0, Csc(tb));
    Matrix d = c.to_dense();
    EXPECT_DOUBLE_EQ(d(0, 0), -1.0);
    EXPECT_DOUBLE_EQ(d(1, 1), -2.0);
}

TEST(Csc, PencilMatchesDensePencil) {
    util::Rng rng(4);
    Csc g = random_sparse(8, 0.3, rng);
    Csc c = random_sparse(8, 0.3, rng);
    const la::cplx s(0.0, 2.0e9);
    ZCsc z = pencil(g, c, s);
    la::ZMatrix expected = la::pencil(g.to_dense(), c.to_dense(), s);
    la::ZMatrix got = z.to_dense();
    EXPECT_LE(la::norm_max(got - expected), 1e-6 * la::norm_max(expected));
}

TEST(Csc, FromDenseRoundTrip) {
    util::Rng rng(5);
    Matrix d = random_matrix(7, 9, rng);
    expect_near(from_dense(d).to_dense(), d, 0.0);
}

TEST(Csc, ApplyToMatrix) {
    // The block forms are bitwise the column-wise vector forms, a zero
    // column of X included.
    util::Rng rng(6);
    Csc a = random_sparse(10, 0.3, rng);
    Matrix x = random_matrix(10, 3, rng);
    for (int i = 0; i < 10; ++i) x(i, 1) = 0.0;
    const Matrix y = a.apply(x);
    const Matrix yt = a.apply_transpose(x);
    for (int j = 0; j < 3; ++j) {
        const Vector yj = a.apply(x.col(j));
        const Vector ytj = a.apply_transpose(x.col(j));
        for (int i = 0; i < 10; ++i) {
            EXPECT_EQ(y(i, j), yj[i]) << i << "," << j;
            EXPECT_EQ(yt(i, j), ytj[i]) << i << "," << j;
        }
    }
    // A block with the wrong row count is rejected even when it has no
    // columns to apply.
    EXPECT_THROW(a.apply(Matrix(9, 0)), Error);
    EXPECT_THROW(a.apply_transpose(Matrix(11, 0)), Error);
}

TEST(Csc, DimensionMismatchThrows) {
    util::Rng rng(7);
    Csc a = random_sparse(5, 0.3, rng);
    EXPECT_THROW(a.apply(Vector(4)), Error);
    EXPECT_THROW(a.apply_transpose(Vector(6)), Error);
}

}  // namespace
}  // namespace varmor::sparse
