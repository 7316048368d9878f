#pragma once

/// varmor's single SIMD surface. Every raw vector intrinsic in the project
/// lives in THIS file (enforced by the varmor-lint `simd-confined` rule);
/// call sites program against Pack<T> and the pointer-level kernels below,
/// which compile to AVX2/FMA code or to portable scalar code depending on the
/// build arm.
///
/// Dispatch policy (compile time, no runtime branching):
///   - The AVX2 arm is active when the build targets AVX2+FMA (`-mavx2
///     -mfma`, added by the VARMOR_SIMD cmake option when the compiler
///     supports it) and VARMOR_SIMD_DISABLED is not defined (the cmake option
///     OFF defines it). Pack<double> is 4 lanes, Pack<cplx> 2 lanes.
///   - Otherwise the scalar arm: every Pack is a single lane of plain
///     IEEE-754 multiply/add, and the _s helpers are plain expressions.
///
/// Bit-identity contract (see README "SIMD layer"):
///   - WITHIN a build arm, results are a pure function of the input shapes:
///     scalar tail elements are computed with the `*_s` twins, which perform
///     bitwise the same arithmetic as the corresponding vector lane (fused
///     where the vector op fuses, separately rounded where it does not). A
///     value therefore never depends on whether it fell in a full vector or
///     in a remainder lane, and solo/blocked kernel pairs that promise
///     bitwise agreement keep it on both arms.
///   - ACROSS arms, fused (FMA) operations round once where the scalar arm
///     rounds twice, so the arms agree numerically (tolerance-tested in
///     tests/test_simd.cpp), not bitwise. The whole build is compiled with
///     -ffp-contract=off so the COMPILER never fuses on its own: all fusion
///     is explicit in this file, and the scalar arm is exactly the
///     plain-source semantics on every compiler.
///
/// Adding a kernel: write the full-vector loop with Pack ops, then the
/// remainder loop with the matching `*_s` twins — never with plain
/// expressions if the vector body fuses — and keep any reduction order a
/// deterministic function of the length alone.

#include <complex>

#if !defined(VARMOR_SIMD_DISABLED) && defined(__AVX2__) && defined(__FMA__)
#define VARMOR_SIMD_AVX2 1
#include <immintrin.h>

#include <cmath>
#endif

namespace varmor::la::simd {

using zd = std::complex<double>;

/// True when this build uses the AVX2/FMA kernels (the benches report it and
/// scale their speedup gates with it).
#if defined(VARMOR_SIMD_AVX2)
constexpr bool kActive = true;
#else
constexpr bool kActive = false;
#endif

// ---------------------------------------------------------------------------
// Scalar twins: the per-element semantics of one vector lane. The AVX2 arm
// fuses through std::fma (a hardware instruction there, bitwise equal to the
// fused vector lanes); the scalar arm is plain source arithmetic.
// ---------------------------------------------------------------------------

#if defined(VARMOR_SIMD_AVX2)

/// a*b + c, single rounding (vfmadd lane).
inline double fmadd_s(double a, double b, double c) { return std::fma(a, b, c); }
/// c - a*b, single rounding (vfnmadd lane).
inline double fnmadd_s(double a, double b, double c) { return std::fma(-a, b, c); }
/// Complex a*b + c with the product's real/imag parts fused exactly like the
/// vfmaddsub-based vector lane: re = fma(ar, br, -(ai*bi)) + cr.
inline zd fmadd_s(zd a, zd b, zd c) {
    return {std::fma(a.real(), b.real(), -(a.imag() * b.imag())) + c.real(),
            std::fma(a.imag(), b.real(), a.real() * b.imag()) + c.imag()};
}
/// Complex c - a*b with the fused product of fmadd_s.
inline zd fnmadd_s(zd a, zd b, zd c) {
    return {c.real() - std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
            c.imag() - std::fma(a.imag(), b.real(), a.real() * b.imag())};
}

#else

inline double fmadd_s(double a, double b, double c) { return a * b + c; }
inline double fnmadd_s(double a, double b, double c) { return c - a * b; }
inline zd fmadd_s(zd a, zd b, zd c) {
    return {(a.real() * b.real() - a.imag() * b.imag()) + c.real(),
            (a.imag() * b.real() + a.real() * b.imag()) + c.imag()};
}
inline zd fnmadd_s(zd a, zd b, zd c) {
    return {c.real() - (a.real() * b.real() - a.imag() * b.imag()),
            c.imag() - (a.imag() * b.real() + a.real() * b.imag())};
}

#endif

/// Unfused complex product — the textbook formula with every product rounded
/// separately, bitwise equal to std::complex<double> multiplication on finite
/// values (and to the mul() vector lanes below). Both arms.
///
/// The AVX2 arm spells it with explicit 128-bit intrinsics: written as plain
/// source, GCC's SLP vectorizer pattern-matches the two lanes into a FUSED
/// vfmaddsub in some inlining contexts even under -ffp-contract=off, so the
/// "same" expression rounds differently at different call sites. Intrinsics
/// pin the unfused mul/mul/addsub sequence everywhere.
inline zd mul_s(zd a, zd b) {
#if defined(VARMOR_SIMD_AVX2)
    const __m128d av = _mm_setr_pd(a.real(), a.imag());
    const __m128d bre = _mm_set1_pd(b.real());
    const __m128d asw = _mm_setr_pd(a.imag(), a.real());
    const __m128d bim = _mm_set1_pd(b.imag());
    const __m128d r = _mm_addsub_pd(_mm_mul_pd(av, bre), _mm_mul_pd(asw, bim));
    return {_mm_cvtsd_f64(r), _mm_cvtsd_f64(_mm_unpackhi_pd(r, r))};
#else
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.imag() * b.real() + a.real() * b.imag()};
#endif
}
/// Real twin of the unfused product, for generic code.
inline double mul_s(double a, double b) { return a * b; }

/// |re| + |im| — LAPACK's cabs1 pivot magnitude. Orders pivot candidates
/// without the hypot libm call of std::abs(std::complex); zero exactly when
/// the entry is zero, so singularity checks carry over. Both arms.
inline double abs1(zd a) { return std::abs(a.real()) + std::abs(a.imag()); }

/// Scalar complex division by Smith's algorithm: scale by the larger
/// denominator component, so intermediate products stay in range wherever
/// the true quotient is representable. A few times cheaper than the
/// full-range __divdc3 the / operator lowers to, at the cost of the
/// (unused here) extreme-magnitude recovery path. Plain unfused arithmetic,
/// bitwise identical across build arms. Kernels that own BOTH sides of a
/// bit-identity contract may divide with this; kernels whose twin uses the
/// / operator must keep the / operator.
inline zd div_s(zd a, zd b) {
    if (std::abs(b.real()) >= std::abs(b.imag())) {
        const double t = b.imag() / b.real();
        const double d = b.real() + b.imag() * t;
        return {(a.real() + a.imag() * t) / d, (a.imag() - a.real() * t) / d};
    }
    const double t = b.real() / b.imag();
    const double d = b.real() * t + b.imag();
    return {(a.real() * t + a.imag()) / d, (a.imag() * t - a.real()) / d};
}

// ---------------------------------------------------------------------------
// Pack<T>: the vector register abstraction.
// ---------------------------------------------------------------------------

template <class T>
struct Pack;

#if defined(VARMOR_SIMD_AVX2)

template <>
struct Pack<double> {
    __m256d v;
    static constexpr int lanes = 4;
    static Pack zero() { return {_mm256_setzero_pd()}; }
    static Pack broadcast(double a) { return {_mm256_set1_pd(a)}; }
    static Pack load(const double* p) { return {_mm256_loadu_pd(p)}; }
    void store(double* p) const { _mm256_storeu_pd(p, v); }
};

inline Pack<double> add(Pack<double> a, Pack<double> b) { return {_mm256_add_pd(a.v, b.v)}; }
inline Pack<double> sub(Pack<double> a, Pack<double> b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline Pack<double> mul(Pack<double> a, Pack<double> b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline Pack<double> div(Pack<double> a, Pack<double> b) { return {_mm256_div_pd(a.v, b.v)}; }
/// a*b + c, fused.
inline Pack<double> fmadd(Pack<double> a, Pack<double> b, Pack<double> c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
/// c - a*b, fused.
inline Pack<double> fnmadd(Pack<double> a, Pack<double> b, Pack<double> c) {
    return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
}
/// Deterministic horizontal sum: (v0 + v2) + (v1 + v3).
inline double hsum(Pack<double> a) {
    const __m128d lo = _mm256_castpd256_pd128(a.v);
    const __m128d hi = _mm256_extractf128_pd(a.v, 1);
    const __m128d s = _mm_add_pd(lo, hi);  // [v0+v2, v1+v3]
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Two interleaved complex doubles [re0, im0, re1, im1] in one register.
template <>
struct Pack<zd> {
    __m256d v;
    static constexpr int lanes = 2;
    static Pack zero() { return {_mm256_setzero_pd()}; }
    static Pack broadcast(zd a) {
        return {_mm256_setr_pd(a.real(), a.imag(), a.real(), a.imag())};
    }
    static Pack load(const zd* p) {
        return {_mm256_loadu_pd(reinterpret_cast<const double*>(p))};
    }
    void store(zd* p) const { _mm256_storeu_pd(reinterpret_cast<double*>(p), v); }
};

inline Pack<zd> add(Pack<zd> a, Pack<zd> b) { return {_mm256_add_pd(a.v, b.v)}; }
inline Pack<zd> sub(Pack<zd> a, Pack<zd> b) { return {_mm256_sub_pd(a.v, b.v)}; }
namespace detail {
/// [ai*bi, ar*bi] per lane — the cross term of the complex product.
inline __m256d cmul_cross(__m256d a, __m256d b) {
    const __m256d bim = _mm256_permute_pd(b, 0xF);  // [bi, bi]
    const __m256d asw = _mm256_permute_pd(a, 0x5);  // [ai, ar]
    return _mm256_mul_pd(asw, bim);
}
}  // namespace detail
/// Unfused complex product: every partial product rounded separately —
/// bitwise equal to mul_s() and to std::complex multiplication (finite data).
inline Pack<zd> mul(Pack<zd> a, Pack<zd> b) {
    const __m256d bre = _mm256_movedup_pd(b.v);  // [br, br]
    return {_mm256_addsub_pd(_mm256_mul_pd(a.v, bre), detail::cmul_cross(a.v, b.v))};
}
/// Fused complex product (the fmadd_s/fnmadd_s semantics).
namespace detail {
inline __m256d cmul_fused(__m256d a, __m256d b) {
    const __m256d bre = _mm256_movedup_pd(b);
    return _mm256_fmaddsub_pd(a, bre, cmul_cross(a, b));
}
}  // namespace detail
/// a*b + c with the fused product (matches fmadd_s per lane).
inline Pack<zd> fmadd(Pack<zd> a, Pack<zd> b, Pack<zd> c) {
    return {_mm256_add_pd(detail::cmul_fused(a.v, b.v), c.v)};
}
/// c - a*b with the fused product (matches fnmadd_s per lane).
inline Pack<zd> fnmadd(Pack<zd> a, Pack<zd> b, Pack<zd> c) {
    return {_mm256_sub_pd(c.v, detail::cmul_fused(a.v, b.v))};
}
/// Deterministic horizontal sum of the two complex lanes: lane0 + lane1.
inline zd hsum(Pack<zd> a) {
    const __m128d lo = _mm256_castpd256_pd128(a.v);
    const __m128d hi = _mm256_extractf128_pd(a.v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    alignas(16) double out[2];
    _mm_store_pd(out, s);
    return {out[0], out[1]};
}

#else  // scalar arm ---------------------------------------------------------

template <>
struct Pack<double> {
    double v;
    static constexpr int lanes = 1;
    static Pack zero() { return {0.0}; }
    static Pack broadcast(double a) { return {a}; }
    static Pack load(const double* p) { return {*p}; }
    void store(double* p) const { *p = v; }
};

inline Pack<double> add(Pack<double> a, Pack<double> b) { return {a.v + b.v}; }
inline Pack<double> sub(Pack<double> a, Pack<double> b) { return {a.v - b.v}; }
inline Pack<double> mul(Pack<double> a, Pack<double> b) { return {a.v * b.v}; }
inline Pack<double> div(Pack<double> a, Pack<double> b) { return {a.v / b.v}; }
inline Pack<double> fmadd(Pack<double> a, Pack<double> b, Pack<double> c) {
    return {a.v * b.v + c.v};
}
inline Pack<double> fnmadd(Pack<double> a, Pack<double> b, Pack<double> c) {
    return {c.v - a.v * b.v};
}
inline double hsum(Pack<double> a) { return a.v; }

template <>
struct Pack<zd> {
    zd v;
    static constexpr int lanes = 1;
    static Pack zero() { return {zd{}}; }
    static Pack broadcast(zd a) { return {a}; }
    static Pack load(const zd* p) { return {*p}; }
    void store(zd* p) const { *p = v; }
};

inline Pack<zd> add(Pack<zd> a, Pack<zd> b) { return {a.v + b.v}; }
inline Pack<zd> sub(Pack<zd> a, Pack<zd> b) { return {a.v - b.v}; }
inline Pack<zd> mul(Pack<zd> a, Pack<zd> b) { return {mul_s(a.v, b.v)}; }
inline Pack<zd> fmadd(Pack<zd> a, Pack<zd> b, Pack<zd> c) { return {fmadd_s(a.v, b.v, c.v)}; }
inline Pack<zd> fnmadd(Pack<zd> a, Pack<zd> b, Pack<zd> c) { return {fnmadd_s(a.v, b.v, c.v)}; }
inline zd hsum(Pack<zd> a) { return a.v; }

#endif

// ---------------------------------------------------------------------------
// Pointer-level kernels: the primitives shared by the dense/sparse hot loops.
// Each handles its own remainder with the *_s twins, so per-element results
// are independent of where the vector/tail split falls.
// ---------------------------------------------------------------------------

/// y[i] += a * x[i] (fused).
template <class T>
inline void axpy_n(int n, T a, const T* x, T* y) {
    using P = Pack<T>;
    const P av = P::broadcast(a);
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes)
        fmadd(av, P::load(x + i), P::load(y + i)).store(y + i);
    for (; i < n; ++i) y[i] = fmadd_s(a, x[i], y[i]);
}

/// y[i] -= a * x[i] (fused).
template <class T>
inline void fnma_n(int n, T a, const T* x, T* y) {
    using P = Pack<T>;
    const P av = P::broadcast(a);
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes)
        fnmadd(av, P::load(x + i), P::load(y + i)).store(y + i);
    for (; i < n; ++i) y[i] = fnmadd_s(a, x[i], y[i]);
}

/// z[i] -= a * x[i] + b * y[i]: fnma_n(a, x) then fnma_n(b, y) in one pass,
/// bitwise the same per element. The symmetric rank-2 update's column step.
inline void fnma2_n(int n, double a, const double* x, double b, const double* y,
                    double* z) {
    using P = Pack<double>;
    const P av = P::broadcast(a), bv = P::broadcast(b);
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes)
        fnmadd(bv, P::load(y + i), fnmadd(av, P::load(x + i), P::load(z + i))).store(z + i);
    for (; i < n; ++i) z[i] = fnmadd_s(b, y[i], fnmadd_s(a, x[i], z[i]));
}

/// y[i] += a * x[i] (fused) and returns sum_i x[i] * v[i] in the dot1_n
/// order, in one pass over x: one column of a symmetric matrix-vector
/// product stored by its lower triangle.
inline double axpy_dot_n(int n, double a, const double* x, const double* v, double* y) {
    using P = Pack<double>;
    const P av = P::broadcast(a);
    P acc = P::zero();
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes) {
        const P xv = P::load(x + i);
        fmadd(av, xv, P::load(y + i)).store(y + i);
        acc = fmadd(xv, P::load(v + i), acc);
    }
    double total = hsum(acc);
    for (; i < n; ++i) {
        y[i] = fmadd_s(a, x[i], y[i]);
        total = fmadd_s(x[i], v[i], total);
    }
    return total;
}

/// sum_i x[i] * y[i] in the ONE-accumulator reduction order: one vector
/// chain, hsum, scalar tail. This is the per-entry order of the
/// gemm_transA register tile — its edge and remainder entries reduce through
/// this kernel so every c(i,j) is a function of the two columns and the row
/// count only, never of the tile position. Prefer dot_n for standalone dots;
/// the single chain serializes on FMA latency.
template <class T>
inline T dot1_n(int n, const T* x, const T* y) {
    using P = Pack<T>;
    P acc = P::zero();
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes)
        acc = fmadd(P::load(x + i), P::load(y + i), acc);
    T total = hsum(acc);
    for (; i < n; ++i) total = fmadd_s(x[i], y[i], total);
    return total;
}

/// sum_i x[i] * y[i] (plain product, no conjugation). Four independent
/// vector accumulator chains hide the FMA latency a single chain serializes
/// on (a ~3x wall-clock difference on the Hessenberg hot loops; see
/// bench/kernels_micro). Reduction order is still a deterministic function
/// of n alone: round-robin lanes into four accumulators, pairwise-combine,
/// hsum, then the scalar tail.
template <class T>
inline T dot_n(int n, const T* x, const T* y) {
    using P = Pack<T>;
    constexpr int W = P::lanes;
    P a0 = P::zero(), a1 = P::zero(), a2 = P::zero(), a3 = P::zero();
    int i = 0;
    for (; i + 4 * W <= n; i += 4 * W) {
        a0 = fmadd(P::load(x + i), P::load(y + i), a0);
        a1 = fmadd(P::load(x + i + W), P::load(y + i + W), a1);
        a2 = fmadd(P::load(x + i + 2 * W), P::load(y + i + 2 * W), a2);
        a3 = fmadd(P::load(x + i + 3 * W), P::load(y + i + 3 * W), a3);
    }
    if (i + 2 * W <= n) {
        a0 = fmadd(P::load(x + i), P::load(y + i), a0);
        a1 = fmadd(P::load(x + i + W), P::load(y + i + W), a1);
        i += 2 * W;
    }
    if (i + W <= n) {
        a2 = fmadd(P::load(x + i), P::load(y + i), a2);
        i += W;
    }
    T total = hsum(add(add(a0, a2), add(a1, a3)));
    for (; i < n; ++i) total = fmadd_s(x[i], y[i], total);
    return total;
}

/// Plane rotation of two real vectors: (x[i], y[i]) <- (c x[i] - s y[i],
/// s x[i] + c y[i]), every product rounded separately on both arms.
inline void rot_n(int n, double c, double s, double* x, double* y) {
    using P = Pack<double>;
    const P cv = P::broadcast(c), sv = P::broadcast(s);
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes) {
        const P xv = P::load(x + i), yv = P::load(y + i);
        sub(mul(cv, xv), mul(sv, yv)).store(x + i);
        add(mul(sv, xv), mul(cv, yv)).store(y + i);
    }
    for (; i < n; ++i) {
        const double xi = x[i], yi = y[i];
        x[i] = c * xi - s * yi;
        y[i] = s * xi + c * yi;
    }
}

/// x[i] *= a.
template <class T>
inline void scale_n(int n, T a, T* x) {
    using P = Pack<T>;
    const P av = P::broadcast(a);
    int i = 0;
    for (; i + P::lanes <= n; i += P::lanes) mul(av, P::load(x + i)).store(x + i);
    for (; i < n; ++i) x[i] = mul_s(a, x[i]);
}

#if defined(VARMOR_SIMD_AVX2)
namespace detail {
/// Interleaves two 4-wide real vectors [r0..r3] / [i0..i3] into two complex
/// vectors [r0,i0,r1,i1] and [r2,i2,r3,i3] and stores them at out.
inline void store_interleaved(__m256d re, __m256d im, zd* out) {
    const __m256d lo = _mm256_unpacklo_pd(re, im);  // [r0,i0, r2,i2]
    const __m256d hi = _mm256_unpackhi_pd(re, im);  // [r1,i1, r3,i3]
    double* p = reinterpret_cast<double*>(out);
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}
}  // namespace detail
#endif

/// out[i] = g[i] + s * c[i] for real g, c — the pencil stamp K = G + sC.
/// Per element: re = fma_s(s.re, c, g), im = s.im * c.
inline void pencil_stamp_n(int n, zd s, const double* g, const double* c, zd* out) {
#if defined(VARMOR_SIMD_AVX2)
    const __m256d sr = _mm256_set1_pd(s.real());
    const __m256d si = _mm256_set1_pd(s.imag());
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d gv = _mm256_loadu_pd(g + i);
        const __m256d cv = _mm256_loadu_pd(c + i);
        detail::store_interleaved(_mm256_fmadd_pd(sr, cv, gv), _mm256_mul_pd(si, cv),
                                  out + i);
    }
    for (; i < n; ++i) out[i] = {fmadd_s(s.real(), c[i], g[i]), s.imag() * c[i]};
#else
    for (int i = 0; i < n; ++i) out[i] = {g[i] + s.real() * c[i], s.imag() * c[i]};
#endif
}

/// out[i] = s * h[i] for real h — the I + sH band stamp (the +1 diagonal is
/// the caller's). Plain products on both arms, so the arms agree bitwise.
inline void zscale_real_n(int n, zd s, const double* h, zd* out) {
#if defined(VARMOR_SIMD_AVX2)
    const __m256d sr = _mm256_set1_pd(s.real());
    const __m256d si = _mm256_set1_pd(s.imag());
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d hv = _mm256_loadu_pd(h + i);
        detail::store_interleaved(_mm256_mul_pd(sr, hv), _mm256_mul_pd(si, hv), out + i);
    }
    for (; i < n; ++i) out[i] = {s.real() * h[i], s.imag() * h[i]};
#else
    for (int i = 0; i < n; ++i) out[i] = {s.real() * h[i], s.imag() * h[i]};
#endif
}

}  // namespace varmor::la::simd
