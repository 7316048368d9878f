#pragma once

/// Hessenberg kernels of the batched ROM evaluator, extracted from
/// mor/rom_eval.cpp onto the simd layer so tests and micro-benchmarks can
/// exercise them directly against the *_naive references in
/// tests/reference_kernels.h.

#include <cmath>
#include <utility>
#include <vector>

#include "la/dense.h"
#include "la/simd.h"

namespace varmor::la {

/// In-place Householder reduction of `h` to upper Hessenberg form with the
/// orthogonal transform accumulated into `q`: on return h is upper
/// Hessenberg, q orthogonal, and  a_input = q * h * q^T. Column-oriented
/// throughout — the reflector dots/axpys run down contiguous column tails on
/// Pack<double>-wide kernels; `v` is reflector scratch.
inline void hessenberg_with_q(Matrix& h, Matrix& q, std::vector<double>& v) {
    const int n = h.rows();
    if (q.rows() != n || q.cols() != n) q = Matrix(n, n);
    q.fill(0.0);
    for (int i = 0; i < n; ++i) q(i, i) = 1.0;
    v.resize(static_cast<std::size_t>(n));
    std::vector<double> w;

    for (int k = 0; k + 2 < n; ++k) {
        // Reflector annihilating h(k+2.., k): v spans rows k+1..n-1.
        const int len = n - k - 1;
        double* hk = h.col_data(k) + (k + 1);
        const double xnorm2 = simd::dot_n(len, hk, hk);
        const double xnorm = std::sqrt(xnorm2);
        if (xnorm == 0.0) continue;  // column already reduced
        const double alpha = hk[0] >= 0.0 ? -xnorm : xnorm;
        v[0] = hk[0] - alpha;
        for (int i = 1; i < len; ++i) v[static_cast<std::size_t>(i)] = hk[i];
        const double vnorm2 = simd::dot_n(len, v.data(), v.data());
        if (vnorm2 == 0.0) continue;
        const double beta = 2.0 / vnorm2;

        // Column k maps to (.., alpha, 0, ..) exactly; store that directly.
        hk[0] = alpha;
        for (int i = 1; i < len; ++i) hk[i] = 0.0;

        // Left transform: rows k+1..n-1 of columns k+1..n-1, four columns per
        // pass so the reflector loads are shared and the four dot chains run
        // independently (a single dot chain serializes on FMA latency).
        {
            using P = simd::Pack<double>;
            constexpr int W = P::lanes;
            int j = k + 1;
            for (; j + 4 <= n; j += 4) {
                double* c0 = h.col_data(j) + (k + 1);
                double* c1 = h.col_data(j + 1) + (k + 1);
                double* c2 = h.col_data(j + 2) + (k + 1);
                double* c3 = h.col_data(j + 3) + (k + 1);
                P s0 = P::zero(), s1 = P::zero(), s2 = P::zero(), s3 = P::zero();
                int i = 0;
                for (; i + W <= len; i += W) {
                    const P vv = P::load(v.data() + i);
                    s0 = fmadd(vv, P::load(c0 + i), s0);
                    s1 = fmadd(vv, P::load(c1 + i), s1);
                    s2 = fmadd(vv, P::load(c2 + i), s2);
                    s3 = fmadd(vv, P::load(c3 + i), s3);
                }
                double f0 = hsum(s0), f1 = hsum(s1), f2 = hsum(s2), f3 = hsum(s3);
                for (; i < len; ++i) {
                    const double vi = v[static_cast<std::size_t>(i)];
                    f0 = simd::fmadd_s(vi, c0[i], f0);
                    f1 = simd::fmadd_s(vi, c1[i], f1);
                    f2 = simd::fmadd_s(vi, c2[i], f2);
                    f3 = simd::fmadd_s(vi, c3[i], f3);
                }
                f0 *= beta; f1 *= beta; f2 *= beta; f3 *= beta;
                const P f0v = P::broadcast(f0), f1v = P::broadcast(f1);
                const P f2v = P::broadcast(f2), f3v = P::broadcast(f3);
                for (i = 0; i + W <= len; i += W) {
                    const P vv = P::load(v.data() + i);
                    fnmadd(f0v, vv, P::load(c0 + i)).store(c0 + i);
                    fnmadd(f1v, vv, P::load(c1 + i)).store(c1 + i);
                    fnmadd(f2v, vv, P::load(c2 + i)).store(c2 + i);
                    fnmadd(f3v, vv, P::load(c3 + i)).store(c3 + i);
                }
                for (; i < len; ++i) {
                    const double vi = v[static_cast<std::size_t>(i)];
                    c0[i] = simd::fnmadd_s(f0, vi, c0[i]);
                    c1[i] = simd::fnmadd_s(f1, vi, c1[i]);
                    c2[i] = simd::fnmadd_s(f2, vi, c2[i]);
                    c3[i] = simd::fnmadd_s(f3, vi, c3[i]);
                }
            }
            for (; j < n; ++j) {
                double* cj = h.col_data(j) + (k + 1);
                const double f = beta * simd::dot_n(len, v.data(), cj);
                if (f == 0.0) continue;
                simd::fnma_n(len, f, v.data(), cj);
            }
        }

        // Right transform on h and accumulation into q: M <- M (I - beta v v^T)
        // over columns k+1..n-1, as two sweeps through contiguous columns —
        // w = M[:, k+1..] v first, then the rank-1 update M[:, k+1..] -=
        // beta w v^T. Four columns per pass share the w loads/stores.
        auto right_apply = [&](Matrix& m) {
            using P = simd::Pack<double>;
            constexpr int W = P::lanes;
            w.assign(static_cast<std::size_t>(n), 0.0);
            int c = 0;
            for (; c + 4 <= len; c += 4) {
                const double* c0 = m.col_data(k + 1 + c);
                const double* c1 = m.col_data(k + 2 + c);
                const double* c2 = m.col_data(k + 3 + c);
                const double* c3 = m.col_data(k + 4 + c);
                const P v0 = P::broadcast(v[static_cast<std::size_t>(c)]);
                const P v1 = P::broadcast(v[static_cast<std::size_t>(c) + 1]);
                const P v2 = P::broadcast(v[static_cast<std::size_t>(c) + 2]);
                const P v3 = P::broadcast(v[static_cast<std::size_t>(c) + 3]);
                int i = 0;
                for (; i + W <= n; i += W) {
                    P wv = P::load(w.data() + i);
                    wv = fmadd(v0, P::load(c0 + i), wv);
                    wv = fmadd(v1, P::load(c1 + i), wv);
                    wv = fmadd(v2, P::load(c2 + i), wv);
                    wv = fmadd(v3, P::load(c3 + i), wv);
                    wv.store(w.data() + i);
                }
                for (; i < n; ++i) {
                    double wi = w[static_cast<std::size_t>(i)];
                    wi = simd::fmadd_s(v[static_cast<std::size_t>(c)], c0[i], wi);
                    wi = simd::fmadd_s(v[static_cast<std::size_t>(c) + 1], c1[i], wi);
                    wi = simd::fmadd_s(v[static_cast<std::size_t>(c) + 2], c2[i], wi);
                    wi = simd::fmadd_s(v[static_cast<std::size_t>(c) + 3], c3[i], wi);
                    w[static_cast<std::size_t>(i)] = wi;
                }
            }
            for (; c < len; ++c) {
                const double vc = v[static_cast<std::size_t>(c)];
                if (vc == 0.0) continue;
                simd::axpy_n(n, vc, m.col_data(k + 1 + c), w.data());
            }
            c = 0;
            for (; c + 4 <= len; c += 4) {
                double* c0 = m.col_data(k + 1 + c);
                double* c1 = m.col_data(k + 2 + c);
                double* c2 = m.col_data(k + 3 + c);
                double* c3 = m.col_data(k + 4 + c);
                const double f0 = beta * v[static_cast<std::size_t>(c)];
                const double f1 = beta * v[static_cast<std::size_t>(c) + 1];
                const double f2 = beta * v[static_cast<std::size_t>(c) + 2];
                const double f3 = beta * v[static_cast<std::size_t>(c) + 3];
                const P f0v = P::broadcast(f0), f1v = P::broadcast(f1);
                const P f2v = P::broadcast(f2), f3v = P::broadcast(f3);
                int i = 0;
                for (; i + W <= n; i += W) {
                    const P wv = P::load(w.data() + i);
                    fnmadd(f0v, wv, P::load(c0 + i)).store(c0 + i);
                    fnmadd(f1v, wv, P::load(c1 + i)).store(c1 + i);
                    fnmadd(f2v, wv, P::load(c2 + i)).store(c2 + i);
                    fnmadd(f3v, wv, P::load(c3 + i)).store(c3 + i);
                }
                for (; i < n; ++i) {
                    const double wi = w[static_cast<std::size_t>(i)];
                    c0[i] = simd::fnmadd_s(f0, wi, c0[i]);
                    c1[i] = simd::fnmadd_s(f1, wi, c1[i]);
                    c2[i] = simd::fnmadd_s(f2, wi, c2[i]);
                    c3[i] = simd::fnmadd_s(f3, wi, c3[i]);
                }
            }
            for (; c < len; ++c) {
                const double f = beta * v[static_cast<std::size_t>(c)];
                if (f == 0.0) continue;
                simd::fnma_n(n, f, w.data(), m.col_data(k + 1 + c));
            }
        };
        right_apply(h);
        right_apply(q);
    }
}

/// Solves M X = R in place given MT = M^T for an upper Hessenberg M (the
/// evaluator's I + sH), i.e. MT is lower Hessenberg. Storing the transpose
/// turns every row operation of the elimination into a CONTIGUOUS column
/// operation: the adjacent-row pivot swap exchanges two column tails, the
/// single-entry elimination step is one Pack<cplx>-wide fnma_n down a column,
/// and back substitution reads row j of U as the contiguous tail of MT's
/// column j — one dot_n per right-hand side. O(q^2 (1 + nrhs)) with unit
/// stride throughout (the row-strided form runs ~2x slower at q ~ 60; see
/// bench/kernels_micro). Throws varmor::Error when the matrix is singular to
/// working precision.
inline void hessenberg_solve_t(ZMatrix& mt, ZMatrix& x) {
    const int n = mt.rows();
    const int nrhs = x.cols();
    for (int k = 0; k + 1 < n; ++k) {
        cplx* ck = mt.col_data(k);
        cplx* ck1 = mt.col_data(k + 1);
        // M(i, j) = MT(j, i): the subdiagonal entry M(k+1, k) lives at
        // MT(k, k+1), and rows k / k+1 of M are columns k / k+1 of MT.
        if (simd::abs1(ck1[k]) > simd::abs1(ck[k])) {
            for (int j = k; j < n; ++j) std::swap(ck[j], ck1[j]);
            for (int r = 0; r < nrhs; ++r) std::swap(x(k, r), x(k + 1, r));
        }
        check(simd::abs1(ck[k]) > 0.0,
              "hessenberg_solve: matrix is numerically singular");
        const cplx mult = simd::div_s(ck1[k], ck[k]);
        if (mult != cplx{}) {
            simd::fnma_n(n - k - 1, mult, ck + k + 1, ck1 + k + 1);
            for (int r = 0; r < nrhs; ++r)
                x(k + 1, r) = simd::fnmadd_s(mult, x(k, r), x(k + 1, r));
        }
    }
    check(simd::abs1(mt(n - 1, n - 1)) > 0.0,
          "hessenberg_solve: matrix is numerically singular");
    for (int j = n - 1; j >= 0; --j) {
        const cplx* cj = mt.col_data(j);  // row j of U, contiguous from col j
        for (int r = 0; r < nrhs; ++r) {
            cplx* xr = x.col_data(r);
            const cplx acc = simd::dot_n(n - j - 1, cj + j + 1, xr + j + 1);
            xr[j] = simd::div_s(xr[j] - acc, cj[j]);
        }
    }
}

}  // namespace varmor::la
