#pragma once

/// Plain-arithmetic reference kernels: the unblocked loops the blocked and
/// simd kernels of src/la are tested and micro-benchmarked against, and the
/// baselines the benches reconstruct. Not part of the library.

#include <cmath>
#include <utility>
#include <vector>

#include "la/dense.h"

namespace varmor::la {

/// Reference A * B: the unblocked triple loop the blocked la::matmul is
/// tested against.
template <class T>
MatrixT<T> matmul_naive(const MatrixT<T>& a, const MatrixT<T>& b) {
    check(a.cols() == b.rows(), "matmul_naive: dimension mismatch");
    MatrixT<T> c(a.rows(), b.cols());
    for (int j = 0; j < b.cols(); ++j) {
        const T* bj = b.col_data(j);
        T* cj = c.col_data(j);
        for (int k = 0; k < a.cols(); ++k) {
            const T bkj = bj[k];
            if (bkj == T{}) continue;
            const T* ak = a.col_data(k);
            for (int i = 0; i < a.rows(); ++i) cj[i] += ak[i] * bkj;
        }
    }
    return c;
}

/// Reference A^T * B (unblocked dot products) for la::matmul_transA.
template <class T>
MatrixT<T> matmul_transA_naive(const MatrixT<T>& a, const MatrixT<T>& b) {
    check(a.rows() == b.rows(), "matmul_transA_naive: dimension mismatch");
    MatrixT<T> c(a.cols(), b.cols());
    for (int j = 0; j < b.cols(); ++j) {
        const T* bj = b.col_data(j);
        for (int i = 0; i < a.cols(); ++i) {
            const T* ai = a.col_data(i);
            T acc{};
            for (int r = 0; r < a.rows(); ++r) acc += ai[r] * bj[r];
            c(i, j) = acc;
        }
    }
    return c;
}

/// Reference for la::hessenberg_with_q: the same Householder reduction with
/// one column per pass.
inline void hessenberg_with_q_naive(Matrix& h, Matrix& q, std::vector<double>& v) {
    const int n = h.rows();
    if (q.rows() != n || q.cols() != n) q = Matrix(n, n);
    q.fill(0.0);
    for (int i = 0; i < n; ++i) q(i, i) = 1.0;
    v.resize(static_cast<std::size_t>(n));
    std::vector<double> w;

    for (int k = 0; k + 2 < n; ++k) {
        const int len = n - k - 1;
        double* hk = h.col_data(k) + (k + 1);
        double xnorm2 = 0.0;
        for (int i = 0; i < len; ++i) xnorm2 += hk[i] * hk[i];
        const double xnorm = std::sqrt(xnorm2);
        if (xnorm == 0.0) continue;
        const double alpha = hk[0] >= 0.0 ? -xnorm : xnorm;
        v[0] = hk[0] - alpha;
        for (int i = 1; i < len; ++i) v[static_cast<std::size_t>(i)] = hk[i];
        double vnorm2 = 0.0;
        for (int i = 0; i < len; ++i)
            vnorm2 += v[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
        if (vnorm2 == 0.0) continue;
        const double beta = 2.0 / vnorm2;

        hk[0] = alpha;
        for (int i = 1; i < len; ++i) hk[i] = 0.0;

        for (int j = k + 1; j < n; ++j) {
            double* cj = h.col_data(j) + (k + 1);
            double dot = 0.0;
            for (int i = 0; i < len; ++i) dot += v[static_cast<std::size_t>(i)] * cj[i];
            const double f = beta * dot;
            if (f == 0.0) continue;
            for (int i = 0; i < len; ++i) cj[i] -= f * v[static_cast<std::size_t>(i)];
        }

        auto right_apply = [&](Matrix& m) {
            w.assign(static_cast<std::size_t>(n), 0.0);
            for (int c = 0; c < len; ++c) {
                const double vc = v[static_cast<std::size_t>(c)];
                if (vc == 0.0) continue;
                const double* col = m.col_data(k + 1 + c);
                for (int i = 0; i < n; ++i) w[static_cast<std::size_t>(i)] += vc * col[i];
            }
            for (int c = 0; c < len; ++c) {
                const double f = beta * v[static_cast<std::size_t>(c)];
                if (f == 0.0) continue;
                double* col = m.col_data(k + 1 + c);
                for (int i = 0; i < n; ++i) col[i] -= f * w[static_cast<std::size_t>(i)];
            }
        };
        right_apply(h);
        right_apply(q);
    }
}

/// Reference for la::hessenberg_solve_t: the row-oriented elimination on M
/// itself (not its transpose), with plain complex arithmetic.
inline void hessenberg_solve_naive(ZMatrix& m, ZMatrix& x) {
    const int n = m.rows();
    const int nrhs = x.cols();
    for (int k = 0; k + 1 < n; ++k) {
        if (std::abs(m(k + 1, k)) > std::abs(m(k, k))) {
            for (int j = k; j < n; ++j) std::swap(m(k, j), m(k + 1, j));
            for (int r = 0; r < nrhs; ++r) std::swap(x(k, r), x(k + 1, r));
        }
        check(std::abs(m(k, k)) > 0.0,
              "hessenberg_solve: matrix is numerically singular");
        const cplx mult = m(k + 1, k) / m(k, k);
        if (mult != cplx{}) {
            for (int j = k + 1; j < n; ++j) m(k + 1, j) -= mult * m(k, j);
            for (int r = 0; r < nrhs; ++r) x(k + 1, r) -= mult * x(k, r);
        }
    }
    check(std::abs(m(n - 1, n - 1)) > 0.0,
          "hessenberg_solve: matrix is numerically singular");
    for (int j = n - 1; j >= 0; --j) {
        const cplx* cj = m.col_data(j);
        for (int r = 0; r < nrhs; ++r) {
            cplx* xr = x.col_data(r);
            xr[j] /= cj[j];
            const cplx xj = xr[j];
            if (xj == cplx{}) continue;
            for (int i = 0; i < j; ++i) xr[i] -= cj[i] * xj;
        }
    }
}

/// Reference for la::cgs2: one modified Gram-Schmidt pass of v against the
/// first k columns of `basis`, each coefficient one dependent dot-product
/// chain. extend_basis, Arnoldi and the Lanczos SVD each ran it twice before
/// CGS2. Adds column j's coefficient to coef[j].
inline void mgs_pass_naive(const Matrix& basis, int k, Vector& v, double* coef) {
    for (int j = 0; j < k; ++j) {
        const double* q = basis.col_data(j);
        double c = 0;
        for (int i = 0; i < v.size(); ++i) c += q[i] * v[i];
        coef[j] += c;
        for (int i = 0; i < v.size(); ++i) v[i] -= c * q[i];
    }
}

}  // namespace varmor::la
