// The PR-8 simd layer's contracts, tested at the kernel level:
//
//  - every Pack lane computes exactly the matching *_s scalar twin, so a
//    kernel's vector body and its remainder tail produce identical values
//    (the within-arm bit-identity foundation);
//  - the pointer kernels (axpy_n / fnma_n / scale_n / pencil_stamp_n /
//    zscale_real_n) are element-wise pinned to their documented per-element
//    formulas across remainder lengths n % lanes != 0;
//  - the blocked matmul / Hessenberg kernels agree with the retained *_naive
//    seed references numerically (their reduction orders differ by design);
//  - the fixed-size small-matrix LU is bitwise the generic dense LU on the
//    same padded matrix, and identity padding is exactly neutral.

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "la/dense.h"
#include "la/hessenberg.h"
#include "la/lu_dense.h"
#include "la/ops.h"
#include "la/simd.h"
#include "la/small_dense.h"
#include "reference_kernels.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace varmor::la {
namespace {

using zd = std::complex<double>;

template <class T>
std::vector<T> random_values(int n, util::Rng& rng);

template <>
std::vector<double> random_values<double>(int n, util::Rng& rng) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.uniform(-2.0, 2.0);
    return v;
}

template <>
std::vector<zd> random_values<zd>(int n, util::Rng& rng) {
    std::vector<zd> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = zd(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
    return v;
}

// ---------------------------------------------------------------------------
// Pack lanes == scalar twins.
// ---------------------------------------------------------------------------

template <class T>
void expect_lanes_match_twins() {
    using P = simd::Pack<T>;
    constexpr int W = P::lanes;
    util::Rng rng(17);
    const auto a = random_values<T>(W, rng);
    const auto b = random_values<T>(W, rng);
    const auto c = random_values<T>(W, rng);
    T out[W];

    fmadd(P::load(a.data()), P::load(b.data()), P::load(c.data())).store(out);
    for (int l = 0; l < W; ++l)
        EXPECT_EQ(out[l], simd::fmadd_s(a[static_cast<std::size_t>(l)],
                                        b[static_cast<std::size_t>(l)],
                                        c[static_cast<std::size_t>(l)]))
            << "fmadd lane " << l;

    fnmadd(P::load(a.data()), P::load(b.data()), P::load(c.data())).store(out);
    for (int l = 0; l < W; ++l)
        EXPECT_EQ(out[l], simd::fnmadd_s(a[static_cast<std::size_t>(l)],
                                         b[static_cast<std::size_t>(l)],
                                         c[static_cast<std::size_t>(l)]))
            << "fnmadd lane " << l;

    mul(P::load(a.data()), P::load(b.data())).store(out);
    for (int l = 0; l < W; ++l)
        EXPECT_EQ(out[l], simd::mul_s(a[static_cast<std::size_t>(l)],
                                      b[static_cast<std::size_t>(l)]))
            << "mul lane " << l;

    add(P::load(a.data()), P::load(b.data())).store(out);
    for (int l = 0; l < W; ++l)
        EXPECT_EQ(out[l],
                  a[static_cast<std::size_t>(l)] + b[static_cast<std::size_t>(l)])
            << "add lane " << l;

    sub(P::load(a.data()), P::load(b.data())).store(out);
    for (int l = 0; l < W; ++l)
        EXPECT_EQ(out[l],
                  a[static_cast<std::size_t>(l)] - b[static_cast<std::size_t>(l)])
            << "sub lane " << l;

    P::broadcast(a[0]).store(out);
    for (int l = 0; l < W; ++l) EXPECT_EQ(out[l], a[0]) << "broadcast lane " << l;
}

TEST(SimdPack, RealLanesMatchScalarTwins) { expect_lanes_match_twins<double>(); }

TEST(SimdPack, ComplexLanesMatchScalarTwins) { expect_lanes_match_twins<zd>(); }

TEST(SimdPack, ComplexMulMatchesUnfusedTextbookFormula) {
    // mul_s promises the textbook product with every partial product rounded
    // separately. The reference is built through volatile slots so the
    // compiler cannot fuse the multiplies into the combining add/sub —
    // std::complex operator* itself is NOT a stable reference, because GCC's
    // SLP vectorizer fuses its two lanes into vfmaddsub in some inlining
    // contexts even under -ffp-contract=off (the very reason mul_s is pinned
    // with explicit intrinsics on the AVX2 arm).
    util::Rng rng(19);
    for (int t = 0; t < 50; ++t) {
        const zd a(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
        const zd b(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
        volatile double arbr = a.real() * b.real();
        volatile double aibi = a.imag() * b.imag();
        volatile double aibr = a.imag() * b.real();
        volatile double arbi = a.real() * b.imag();
        EXPECT_EQ(simd::mul_s(a, b), zd(arbr - aibi, aibr + arbi));
        // And numerically the std::complex product is the same quantity.
        const zd d = simd::mul_s(a, b) - a * b;
        EXPECT_LE(std::abs(d), 1e-15 * std::abs(a * b));
    }
}

// ---------------------------------------------------------------------------
// Pointer kernels: per-element pins over remainder lengths.
// ---------------------------------------------------------------------------

template <class T>
void expect_axpy_fnma_scale_pins() {
    util::Rng rng(23);
    for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
        const auto x = random_values<T>(n, rng);
        const auto y0 = random_values<T>(n, rng);
        const T a = random_values<T>(1, rng)[0];

        auto y = y0;
        simd::axpy_n(n, a, x.data(), y.data());
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(y[static_cast<std::size_t>(i)],
                      simd::fmadd_s(a, x[static_cast<std::size_t>(i)],
                                    y0[static_cast<std::size_t>(i)]))
                << "axpy_n n=" << n << " i=" << i;

        y = y0;
        simd::fnma_n(n, a, x.data(), y.data());
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(y[static_cast<std::size_t>(i)],
                      simd::fnmadd_s(a, x[static_cast<std::size_t>(i)],
                                     y0[static_cast<std::size_t>(i)]))
                << "fnma_n n=" << n << " i=" << i;

        y = y0;
        simd::scale_n(n, a, y.data());
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(y[static_cast<std::size_t>(i)],
                      simd::mul_s(a, y0[static_cast<std::size_t>(i)]))
                << "scale_n n=" << n << " i=" << i;
    }
}

TEST(SimdKernels, RealAxpyFnmaScaleElementwisePins) {
    expect_axpy_fnma_scale_pins<double>();
}

TEST(SimdKernels, ComplexAxpyFnmaScaleElementwisePins) {
    expect_axpy_fnma_scale_pins<zd>();
}

template <class T>
void expect_dot_matches_plain_sum() {
    util::Rng rng(29);
    for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 31, 64}) {
        const auto x = random_values<T>(n, rng);
        const auto y = random_values<T>(n, rng);
        T plain{};
        for (int i = 0; i < n; ++i)
            plain += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        const double tol = 1e-13 * (1.0 + std::abs(plain));
        EXPECT_NEAR(std::abs(simd::dot_n(n, x.data(), y.data()) - plain), 0.0, tol)
            << "dot_n n=" << n;
        EXPECT_NEAR(std::abs(simd::dot1_n(n, x.data(), y.data()) - plain), 0.0, tol)
            << "dot1_n n=" << n;
    }
}

TEST(SimdKernels, RealDotMatchesPlainSum) { expect_dot_matches_plain_sum<double>(); }

TEST(SimdKernels, ComplexDotMatchesPlainSum) { expect_dot_matches_plain_sum<zd>(); }

TEST(SimdKernels, SymmetricLaneKernelsElementwisePins) {
    // The RC lane's fused kernels: fnma2_n is bitwise two fnma_n passes,
    // axpy_dot_n's update is bitwise axpy_n and its dot is dot1_n, and
    // rot_n rotates each pair with separately rounded products — every
    // element a function of its inputs alone, vector lane or tail.
    util::Rng rng(37);
    for (int n : {1, 3, 4, 5, 8, 11}) {
        const auto x = random_values<double>(n, rng);
        const auto y = random_values<double>(n, rng);
        const auto z = random_values<double>(n, rng);
        const double a = rng.uniform(-1.0, 1.0), b = rng.uniform(-1.0, 1.0);
        auto fused = z, twice = z;
        simd::fnma2_n(n, a, x.data(), b, y.data(), fused.data());
        simd::fnma_n(n, a, x.data(), twice.data());
        simd::fnma_n(n, b, y.data(), twice.data());
        EXPECT_EQ(fused, twice) << "fnma2_n n=" << n;

        auto updated = z, axpy = z;
        const double dot = simd::axpy_dot_n(n, a, x.data(), y.data(), updated.data());
        simd::axpy_n(n, a, x.data(), axpy.data());
        EXPECT_EQ(updated, axpy) << "axpy_dot_n n=" << n;
        EXPECT_EQ(dot, simd::dot1_n(n, x.data(), y.data())) << "axpy_dot_n n=" << n;

        const double c = std::cos(a), sn = std::sin(a);
        auto rx = x, ry = y;
        simd::rot_n(n, c, sn, rx.data(), ry.data());
        for (int i = 0; i < n; ++i) {
            const auto xi = x[static_cast<std::size_t>(i)], yi = y[static_cast<std::size_t>(i)];
            EXPECT_EQ(rx[static_cast<std::size_t>(i)], c * xi - sn * yi) << "rot_n i=" << i;
            EXPECT_EQ(ry[static_cast<std::size_t>(i)], sn * xi + c * yi) << "rot_n i=" << i;
        }
    }
}

TEST(SimdKernels, PencilStampMatchesPerElementFormula) {
    util::Rng rng(31);
    const zd s(rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0));
    for (int n : {1, 3, 4, 5, 8, 11}) {
        const auto g = random_values<double>(n, rng);
        const auto c = random_values<double>(n, rng);
        std::vector<zd> out(static_cast<std::size_t>(n));
        simd::pencil_stamp_n(n, s, g.data(), c.data(), out.data());
        for (int i = 0; i < n; ++i) {
            const auto gi = g[static_cast<std::size_t>(i)];
            const auto ci = c[static_cast<std::size_t>(i)];
            EXPECT_EQ(out[static_cast<std::size_t>(i)],
                      zd(simd::fmadd_s(s.real(), ci, gi), s.imag() * ci))
                << "pencil_stamp_n n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, ZscaleRealMatchesPlainProducts) {
    util::Rng rng(37);
    const zd s(rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0));
    for (int n : {1, 2, 3, 4, 5, 9}) {
        const auto h = random_values<double>(n, rng);
        std::vector<zd> out(static_cast<std::size_t>(n));
        simd::zscale_real_n(n, s, h.data(), out.data());
        for (int i = 0; i < n; ++i) {
            const auto hi = h[static_cast<std::size_t>(i)];
            EXPECT_EQ(out[static_cast<std::size_t>(i)], zd(s.real() * hi, s.imag() * hi))
                << "zscale_real_n n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, DivSmithMatchesOperatorNumerically) {
    util::Rng rng(41);
    for (int t = 0; t < 100; ++t) {
        const zd a(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0));
        zd b(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0));
        if (std::abs(b) < 1e-3) b += zd(1.0, 0.0);
        const zd q = simd::div_s(a, b);
        EXPECT_LE(std::abs(q - a / b), 1e-14 * (1.0 + std::abs(a / b)));
    }
    EXPECT_EQ(simd::abs1(zd(0.0, 0.0)), 0.0);
    EXPECT_GT(simd::abs1(zd(0.0, -1e-300)), 0.0);
}

// ---------------------------------------------------------------------------
// Blocked dense kernels vs the retained naive seed references.
// ---------------------------------------------------------------------------

TEST(SimdMatmul, RealMatchesNaiveOnOddAndRectangularShapes) {
    util::Rng rng(43);
    const int shapes[][3] = {{1, 1, 1}, {2, 3, 1}, {5, 7, 3}, {9, 4, 6},
                             {6, 6, 5}, {13, 13, 13}, {17, 11, 9}};
    for (const auto& s : shapes) {
        const Matrix a = testing::random_matrix(s[0], s[1], rng);
        const Matrix b = testing::random_matrix(s[1], s[2], rng);
        testing::expect_near(matmul(a, b), matmul_naive(a, b), 1e-12);
    }
}

TEST(SimdMatmul, ComplexMatchesNaiveOnOddAndRectangularShapes) {
    util::Rng rng(47);
    const int shapes[][3] = {{1, 1, 1}, {2, 3, 1}, {5, 7, 3}, {9, 4, 6}, {13, 13, 13}};
    for (const auto& s : shapes) {
        const ZMatrix a = testing::random_zmatrix(s[0], s[1], rng);
        const ZMatrix b = testing::random_zmatrix(s[1], s[2], rng);
        testing::expect_near(matmul(a, b), matmul_naive(a, b), 1e-12);
    }
}

TEST(SimdMatmul, TransARealAndComplexMatchNaive) {
    util::Rng rng(53);
    const Matrix a = testing::random_matrix(11, 9, rng);
    const Matrix b = testing::random_matrix(11, 7, rng);
    testing::expect_near(matmul_transA(a, b), matmul_transA_naive(a, b), 1e-12);
    const ZMatrix az = testing::random_zmatrix(10, 5, rng);
    const ZMatrix bz = testing::random_zmatrix(10, 6, rng);
    testing::expect_near(matmul_transA(az, bz), matmul_transA_naive(az, bz), 1e-12);
}

TEST(SimdMatmul, TransAEntriesIndependentOfTilePosition) {
    // The documented gemm_transA invariant: every c(i, j) — register tile,
    // edge column, or remainder — reduces in the dot1_n order, so it is a
    // function of the two columns and the row count only. 9 x 7 forces the
    // i-remainder (9 = 4 pairs + 1) and the j-remainder (7 = 4 + 3). 2053
    // rows span several row blocks, across which the tiles carry their
    // accumulators, plus a scalar tail on the AVX2 arm (2053 = 4 * 513 + 1).
    static_assert(2053 > 3 * detail::kTransARowBlock, "2053 rows must span several row blocks");
    util::Rng rng(59);
    for (int rows : {13, 2053}) {
        const Matrix a = testing::random_matrix(rows, 9, rng);
        const Matrix b = testing::random_matrix(rows, 7, rng);
        const Matrix c = matmul_transA(a, b);
        for (int i = 0; i < 9; ++i)
            for (int j = 0; j < 7; ++j)
                EXPECT_EQ(c(i, j), simd::dot1_n(rows, a.col_data(i), b.col_data(j)))
                    << rows << ": " << i << "," << j;
    }
}

// ---------------------------------------------------------------------------
// Hessenberg kernels vs the retained naive references.
// ---------------------------------------------------------------------------

TEST(SimdHessenberg, ReductionMatchesNaiveAndReconstructs) {
    util::Rng rng(61);
    for (int n : {1, 2, 3, 5, 13, 20}) {
        const Matrix a = testing::random_matrix(n, n, rng);
        Matrix h = a, q;
        std::vector<double> v;
        hessenberg_with_q(h, q, v);

        Matrix hn = a, qn;
        std::vector<double> vn;
        hessenberg_with_q_naive(hn, qn, vn);
        testing::expect_near(h, hn, 1e-11);
        testing::expect_near(q, qn, 1e-11);

        // Orthogonality and reconstruction a = q h q^T.
        Matrix qtq = matmul_transA(q, q);
        for (int i = 0; i < n; ++i) qtq(i, i) -= 1.0;
        EXPECT_LE(norm_max(qtq), 1e-12) << "n=" << n;
        testing::expect_near(matmul(q, matmul(h, transpose(q))), a, 1e-11);

        // Upper Hessenberg: exact zeros below the first subdiagonal.
        for (int j = 0; j < n; ++j)
            for (int i = j + 2; i < n; ++i) EXPECT_EQ(h(i, j), 0.0) << i << "," << j;
    }
}

TEST(SimdHessenberg, TransposedSolveMatchesNaive) {
    util::Rng rng(67);
    for (int n : {1, 2, 3, 5, 19, 20, 21, 60}) {
        // A well-conditioned upper Hessenberg system I + sH.
        Matrix hband(n, n);
        hband.fill(0.0);
        for (int j = 0; j < n; ++j)
            for (int i = 0; i <= std::min(j + 1, n - 1); ++i)
                hband(i, j) = rng.uniform(-1.0, 1.0);
        const cplx s(0.4, 1.3);
        ZMatrix m(n, n), mt(n, n);
        m.fill(cplx{});
        mt.fill(cplx{});
        for (int j = 0; j < n; ++j)
            for (int i = 0; i <= std::min(j + 1, n - 1); ++i) {
                const cplx e = s * hband(i, j) + (i == j ? 1.0 : 0.0);
                m(i, j) = e;
                mt(j, i) = e;
            }
        const ZMatrix r = testing::random_zmatrix(n, 3, rng);

        ZMatrix m1 = m, x1 = r;
        hessenberg_solve_naive(m1, x1);
        ZMatrix mt2 = mt, x2 = r;
        hessenberg_solve_t(mt2, x2);
        // Numerical agreement only: the transposed solve ranks pivots by
        // abs1 (|re| + |im|) where the naive solve uses std::abs, so the two
        // can take different row swaps and accumulate different roundoff.
        testing::expect_near(x2, x1, 1e-8);

        // Residual against the unfactored matrix.
        testing::expect_near(matmul(m, x2), r, 1e-8);
    }
}

TEST(SimdHessenberg, TransposedSolveThrowsOnSingular) {
    ZMatrix mt(2, 2);
    mt.fill(cplx{});
    ZMatrix x(2, 1);
    x.fill(cplx(1.0, 0.0));
    EXPECT_THROW(hessenberg_solve_t(mt, x), Error);
}

// ---------------------------------------------------------------------------
// Fixed-size small-matrix LU.
// ---------------------------------------------------------------------------

TEST(SmallLu, PaddedSizeAndDispatchBoundaries) {
    EXPECT_EQ(small_padded_size(1), 4);
    EXPECT_EQ(small_padded_size(4), 4);
    EXPECT_EQ(small_padded_size(5), 8);
    EXPECT_EQ(small_padded_size(19), 20);
    EXPECT_EQ(small_padded_size(20), 20);
    EXPECT_EQ(small_padded_size(21), 24);
    int hit = 0;
    EXPECT_TRUE(small_lu_dispatch(7, [&](auto n) { hit = decltype(n)::value; }));
    EXPECT_EQ(hit, 8);
    EXPECT_TRUE(small_lu_dispatch(20, [&](auto n) { hit = decltype(n)::value; }));
    EXPECT_EQ(hit, 20);
    EXPECT_FALSE(small_lu_dispatch(21, [&](auto) { hit = -1; }));
    EXPECT_EQ(hit, 20);  // f not invoked past the fixed-size range
}

TEST(SmallLu, FactorAndSubstituteBitwiseMatchGenericDenseLu) {
    // On the same N x N matrix the fixed-size kernel must be the generic
    // kernel: same pivot scan, same divisions, same update semantics.
    util::Rng rng(71);
    for (int reps = 0; reps < 3; ++reps) {
        ZMatrix a = testing::random_zmatrix(12, 12, rng);
        for (int i = 0; i < 12; ++i) a(i, i) += 3.0;

        ZMatrix generic = a;
        std::vector<int> gperm;
        detail::lu_factor_inplace(generic, gperm);

        std::vector<cplx> fixed(a.raw().begin(), a.raw().end());
        int fperm[12];
        small_lu_factor<12>(fixed.data(), fperm);

        for (int j = 0; j < 12; ++j)
            for (int i = 0; i < 12; ++i)
                EXPECT_EQ(fixed[static_cast<std::size_t>(j) * 12 +
                                static_cast<std::size_t>(i)],
                          generic(i, j))
                    << i << "," << j;
        for (int i = 0; i < 12; ++i)
            EXPECT_EQ(fperm[i], gperm[static_cast<std::size_t>(i)]) << "perm " << i;

        const ZMatrix b = testing::random_zmatrix(12, 2, rng);
        ZMatrix xg(12, 2);
        std::vector<cplx> xf(24);
        for (int r = 0; r < 2; ++r)
            for (int i = 0; i < 12; ++i) {
                const cplx v = b(gperm[static_cast<std::size_t>(i)], r);
                xg(i, r) = v;
                xf[static_cast<std::size_t>(r) * 12 + static_cast<std::size_t>(i)] = v;
            }
        detail::lu_substitute_inplace(generic, xg.raw().data(), 2);
        small_lu_substitute<12>(fixed.data(), xf.data(), 2);
        for (int r = 0; r < 2; ++r)
            for (int i = 0; i < 12; ++i)
                EXPECT_EQ(xf[static_cast<std::size_t>(r) * 12 +
                             static_cast<std::size_t>(i)],
                          xg(i, r))
                    << i << "," << r;
    }
}

TEST(SmallLu, IdentityPaddingIsExactlyNeutral) {
    // Solving the identity-padded system and the bare q x q system must give
    // the SAME top q rows, bit for bit: the padded rows hold exact zeros in
    // the first q columns, the strict > pivot scan never selects them, and
    // zero right-hand-side padding stays zero through both substitutions.
    util::Rng rng(73);
    const int q = 7, N = 8, m = 2;
    ZMatrix k = testing::random_zmatrix(q, q, rng);
    for (int i = 0; i < q; ++i) k(i, i) += 3.0;
    const ZMatrix b = testing::random_zmatrix(q, m, rng);

    // Bare system through the generic kernels.
    ZMatrix bare = k;
    std::vector<int> bperm;
    detail::lu_factor_inplace(bare, bperm);
    ZMatrix xb(q, m);
    for (int r = 0; r < m; ++r)
        for (int i = 0; i < q; ++i)
            xb(i, r) = b(bperm[static_cast<std::size_t>(i)], r);
    detail::lu_substitute_inplace(bare, xb.raw().data(), m);

    // Identity-padded system through the fixed-size lane.
    std::vector<cplx> pad(static_cast<std::size_t>(N) * N, cplx{});
    for (int j = 0; j < q; ++j)
        for (int i = 0; i < q; ++i)
            pad[static_cast<std::size_t>(j) * N + static_cast<std::size_t>(i)] = k(i, j);
    for (int j = q; j < N; ++j)
        pad[static_cast<std::size_t>(j) * N + static_cast<std::size_t>(j)] = cplx(1.0, 0.0);
    int perm[N];
    small_lu_factor<N>(pad.data(), perm);

    // The permutation stays confined: [0, q) -> [0, q), identity on [q, N).
    for (int i = 0; i < q; ++i) {
        EXPECT_LT(perm[i], q) << i;
        EXPECT_EQ(perm[i], bperm[static_cast<std::size_t>(i)]) << i;
    }
    for (int i = q; i < N; ++i) EXPECT_EQ(perm[i], i);

    std::vector<cplx> xp(static_cast<std::size_t>(N) * m, cplx{});
    for (int r = 0; r < m; ++r)
        for (int i = 0; i < N; ++i) {
            const int pi = perm[i];
            xp[static_cast<std::size_t>(r) * N + static_cast<std::size_t>(i)] =
                pi < q ? b(pi, r) : cplx{};
        }
    small_lu_substitute<N>(pad.data(), xp.data(), m);
    for (int r = 0; r < m; ++r)
        for (int i = 0; i < q; ++i)
            EXPECT_EQ(xp[static_cast<std::size_t>(r) * N + static_cast<std::size_t>(i)],
                      xb(i, r))
                << i << "," << r;
}

}  // namespace
}  // namespace varmor::la
