#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/dense.h"
#include "la/simd.h"

namespace varmor::la {

// ---------------------------------------------------------------------------
// Level-1: vector-vector
// ---------------------------------------------------------------------------

/// Inner product x . y (conjugates x for complex scalars, i.e. x^H y).
template <class T>
T dot(const VectorT<T>& x, const VectorT<T>& y) {
    check(x.size() == y.size(), "dot: dimension mismatch");
    if constexpr (std::is_same_v<T, cplx>) {
        T acc{};
        for (int i = 0; i < x.size(); ++i) acc += std::conj(x[i]) * y[i];
        return acc;
    } else {
        return simd::dot_n(x.size(), x.data(), y.data());
    }
}

/// Euclidean norm.
template <class T>
double norm2(const VectorT<T>& x) {
    if constexpr (std::is_same_v<T, cplx>) {
        double acc = 0;
        for (int i = 0; i < x.size(); ++i) acc += std::norm(x[i]);
        return std::sqrt(acc);
    } else {
        return std::sqrt(simd::dot_n(x.size(), x.data(), x.data()));
    }
}

/// y += alpha * x.
template <class T>
void axpy(T alpha, const VectorT<T>& x, VectorT<T>& y) {
    check(x.size() == y.size(), "axpy: dimension mismatch");
    simd::axpy_n(x.size(), alpha, x.data(), y.data());
}

/// x *= alpha.
template <class T>
void scale(VectorT<T>& x, T alpha) {
    simd::scale_n(x.size(), alpha, x.data());
}

template <class T>
VectorT<T> operator+(const VectorT<T>& a, const VectorT<T>& b) {
    check(a.size() == b.size(), "vector +: dimension mismatch");
    VectorT<T> r(a.size());
    for (int i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
    return r;
}

template <class T>
VectorT<T> operator-(const VectorT<T>& a, const VectorT<T>& b) {
    check(a.size() == b.size(), "vector -: dimension mismatch");
    VectorT<T> r(a.size());
    for (int i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
    return r;
}

template <class T>
VectorT<T> operator*(T alpha, const VectorT<T>& x) {
    VectorT<T> r = x;
    scale(r, alpha);
    return r;
}

// ---------------------------------------------------------------------------
// Level-2/3: matrix-vector, matrix-matrix
// ---------------------------------------------------------------------------

/// A * x.
template <class T>
VectorT<T> matvec(const MatrixT<T>& a, const VectorT<T>& x) {
    check(a.cols() == x.size(), "matvec: dimension mismatch");
    VectorT<T> y(a.rows());
    for (int j = 0; j < a.cols(); ++j)
        simd::axpy_n(a.rows(), x[j], a.col_data(j), y.data());
    return y;
}

/// A^T * x (plain transpose; no conjugation, matching the paper's V^T usage).
template <class T>
VectorT<T> matvec_transpose(const MatrixT<T>& a, const VectorT<T>& x) {
    check(a.rows() == x.size(), "matvec_transpose: dimension mismatch");
    VectorT<T> y(a.cols());
    for (int j = 0; j < a.cols(); ++j)
        y[j] = simd::dot_n(a.rows(), a.col_data(j), x.data());
    return y;
}

namespace detail {

/// C += A * B, register-blocked on top of the simd layer: four columns of
/// B/C per pass over A and two columns of A per pass over C, with the i loop
/// running Pack<T>-wide broadcast-FMA updates down contiguous columns.
/// Remainder rows use the fmadd_s twins, so an entry's value never depends on
/// which side of the vector/tail split it fell on.
template <class T>
void gemm_acc(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
    using P = simd::Pack<T>;
    constexpr int W = P::lanes;
    const int m = a.rows();
    const int kn = a.cols();
    const int n = b.cols();
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const T* b0 = b.col_data(j);
        const T* b1 = b.col_data(j + 1);
        const T* b2 = b.col_data(j + 2);
        const T* b3 = b.col_data(j + 3);
        T* c0 = c.col_data(j);
        T* c1 = c.col_data(j + 1);
        T* c2 = c.col_data(j + 2);
        T* c3 = c.col_data(j + 3);
        int k = 0;
        for (; k + 2 <= kn; k += 2) {
            const T* a0 = a.col_data(k);
            const T* a1 = a.col_data(k + 1);
            const T b00 = b0[k], b01 = b1[k], b02 = b2[k], b03 = b3[k];
            const T b10 = b0[k + 1], b11 = b1[k + 1], b12 = b2[k + 1], b13 = b3[k + 1];
            const P v00 = P::broadcast(b00), v01 = P::broadcast(b01);
            const P v02 = P::broadcast(b02), v03 = P::broadcast(b03);
            const P v10 = P::broadcast(b10), v11 = P::broadcast(b11);
            const P v12 = P::broadcast(b12), v13 = P::broadcast(b13);
            int i = 0;
            for (; i + W <= m; i += W) {
                const P a0v = P::load(a0 + i), a1v = P::load(a1 + i);
                fmadd(a1v, v10, fmadd(a0v, v00, P::load(c0 + i))).store(c0 + i);
                fmadd(a1v, v11, fmadd(a0v, v01, P::load(c1 + i))).store(c1 + i);
                fmadd(a1v, v12, fmadd(a0v, v02, P::load(c2 + i))).store(c2 + i);
                fmadd(a1v, v13, fmadd(a0v, v03, P::load(c3 + i))).store(c3 + i);
            }
            for (; i < m; ++i) {
                const T a0i = a0[i], a1i = a1[i];
                c0[i] = simd::fmadd_s(a1i, b10, simd::fmadd_s(a0i, b00, c0[i]));
                c1[i] = simd::fmadd_s(a1i, b11, simd::fmadd_s(a0i, b01, c1[i]));
                c2[i] = simd::fmadd_s(a1i, b12, simd::fmadd_s(a0i, b02, c2[i]));
                c3[i] = simd::fmadd_s(a1i, b13, simd::fmadd_s(a0i, b03, c3[i]));
            }
        }
        for (; k < kn; ++k) {
            const T* ak = a.col_data(k);
            simd::axpy_n(m, b0[k], ak, c0);
            simd::axpy_n(m, b1[k], ak, c1);
            simd::axpy_n(m, b2[k], ak, c2);
            simd::axpy_n(m, b3[k], ak, c3);
        }
    }
    for (; j < n; ++j) {
        const T* bj = b.col_data(j);
        T* cj = c.col_data(j);
        for (int k = 0; k < kn; ++k) {
            const T bkj = bj[k];
            if (bkj == T{}) continue;
            simd::axpy_n(m, bkj, a.col_data(k), cj);
        }
    }
}

/// C = A^T * B, register-blocked on the simd layer: a 2x4 tile of C holds
/// eight Pack<T>-wide accumulators (two A columns against four B columns).
/// Tall products are row-blocked as well: every tile sweeps one block of
/// kTransARowBlock rows before any tile moves to the next, so each block of
/// A and B is read from memory once and then served from cache, and each
/// tile's accumulators are carried from block to block. Blocks are whole
/// packs, so every row meets the same lane in the same order as in a single
/// sweep: every entry — tile, edge or remainder — is still accumulated in
/// the dot1_n order (one vector accumulator, hsum, then the scalar tail),
/// and c(i,j) depends only on the two columns and the row count, not on the
/// tile position or the blocking. Products whose rows fit in one block (all
/// reduced-order ones) carry nothing: no heap buffer, accumulators in
/// registers.
constexpr int kTransARowBlock = 512;

template <class T>
void gemm_transA(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
    using P = simd::Pack<T>;
    constexpr int W = P::lanes;
    static_assert(kTransARowBlock % W == 0, "gemm_transA: row blocks must hold whole packs");
    const int rows = a.rows();
    const int ma = a.cols();
    const int n = b.cols();
    const int vec_rows = rows - rows % W;  // rows the Pack loop covers
    // Eight carried packs per 2x4 tile, only when there is a second block.
    std::vector<T> carry(vec_rows > kTransARowBlock
                             ? static_cast<std::size_t>(ma / 2) * (n / 4) * 8 * W
                             : 0);
    for (int r0 = 0;; r0 += kTransARowBlock) {
        const int r1 = std::min(r0 + kTransARowBlock, vec_rows);
        const bool first = r0 == 0, last = r1 == vec_rows;
        std::size_t tile = 0;
        for (int j = 0; j + 4 <= n; j += 4) {
            const T* b0 = b.col_data(j);
            const T* b1 = b.col_data(j + 1);
            const T* b2 = b.col_data(j + 2);
            const T* b3 = b.col_data(j + 3);
            for (int i = 0; i + 2 <= ma; i += 2, tile += 8 * W) {
                const T* a0 = a.col_data(i);
                const T* a1 = a.col_data(i + 1);
                P s00 = P::zero(), s01 = P::zero(), s02 = P::zero(), s03 = P::zero();
                P s10 = P::zero(), s11 = P::zero(), s12 = P::zero(), s13 = P::zero();
                if (!first) {
                    const T* in = carry.data() + tile;
                    s00 = P::load(in); s01 = P::load(in + W);
                    s02 = P::load(in + 2 * W); s03 = P::load(in + 3 * W);
                    s10 = P::load(in + 4 * W); s11 = P::load(in + 5 * W);
                    s12 = P::load(in + 6 * W); s13 = P::load(in + 7 * W);
                }
                for (int r = r0; r < r1; r += W) {
                    const P a0v = P::load(a0 + r), a1v = P::load(a1 + r);
                    const P b0v = P::load(b0 + r), b1v = P::load(b1 + r);
                    const P b2v = P::load(b2 + r), b3v = P::load(b3 + r);
                    s00 = fmadd(a0v, b0v, s00); s01 = fmadd(a0v, b1v, s01);
                    s02 = fmadd(a0v, b2v, s02); s03 = fmadd(a0v, b3v, s03);
                    s10 = fmadd(a1v, b0v, s10); s11 = fmadd(a1v, b1v, s11);
                    s12 = fmadd(a1v, b2v, s12); s13 = fmadd(a1v, b3v, s13);
                }
                if (!last) {
                    T* out = carry.data() + tile;
                    s00.store(out); s01.store(out + W);
                    s02.store(out + 2 * W); s03.store(out + 3 * W);
                    s10.store(out + 4 * W); s11.store(out + 5 * W);
                    s12.store(out + 6 * W); s13.store(out + 7 * W);
                    continue;
                }
                T t00 = hsum(s00), t01 = hsum(s01), t02 = hsum(s02), t03 = hsum(s03);
                T t10 = hsum(s10), t11 = hsum(s11), t12 = hsum(s12), t13 = hsum(s13);
                for (int r = vec_rows; r < rows; ++r) {
                    const T a0r = a0[r], a1r = a1[r];
                    const T b0r = b0[r], b1r = b1[r], b2r = b2[r], b3r = b3[r];
                    t00 = simd::fmadd_s(a0r, b0r, t00); t01 = simd::fmadd_s(a0r, b1r, t01);
                    t02 = simd::fmadd_s(a0r, b2r, t02); t03 = simd::fmadd_s(a0r, b3r, t03);
                    t10 = simd::fmadd_s(a1r, b0r, t10); t11 = simd::fmadd_s(a1r, b1r, t11);
                    t12 = simd::fmadd_s(a1r, b2r, t12); t13 = simd::fmadd_s(a1r, b3r, t13);
                }
                c(i, j) = t00; c(i, j + 1) = t01; c(i, j + 2) = t02; c(i, j + 3) = t03;
                c(i + 1, j) = t10; c(i + 1, j + 1) = t11; c(i + 1, j + 2) = t12; c(i + 1, j + 3) = t13;
            }
        }
        if (last) break;
    }
    // Edges, through dot1_n itself: an odd last A column against the tiled
    // B columns, and every A column against the B columns past the tiles.
    for (int j = 0; j < n; ++j)
        for (int i = j < n - n % 4 ? ma - ma % 2 : 0; i < ma; ++i)
            c(i, j) = simd::dot1_n(rows, a.col_data(i), b.col_data(j));
}

}  // namespace detail

/// A * B (blocked kernel; tests/reference_kernels.h has the reference loop).
template <class T>
MatrixT<T> matmul(const MatrixT<T>& a, const MatrixT<T>& b) {
    check(a.cols() == b.rows(), "matmul: dimension mismatch");
    MatrixT<T> c(a.rows(), b.cols());
    detail::gemm_acc(a, b, c);
    return c;
}

/// C = A * B into caller storage (resized on shape mismatch) — the
/// allocation-free product under the batched ROM evaluation loops. Same
/// kernel as matmul(), so results are bit-identical to it.
template <class T>
void matmul_into(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>& c) {
    check(a.cols() == b.rows(), "matmul_into: dimension mismatch");
    if (c.rows() != a.rows() || c.cols() != b.cols())
        c = MatrixT<T>(a.rows(), b.cols());
    else
        c.fill(T{});
    detail::gemm_acc(a, b, c);
}

/// A^T * B (plain transpose, the congruence-transform workhorse V^T G V).
/// Blocked kernel; tests/reference_kernels.h has the reference loop.
template <class T>
MatrixT<T> matmul_transA(const MatrixT<T>& a, const MatrixT<T>& b) {
    check(a.rows() == b.rows(), "matmul_transA: dimension mismatch");
    MatrixT<T> c(a.cols(), b.cols());
    detail::gemm_transA(a, b, c);
    return c;
}

/// Plain transpose.
template <class T>
MatrixT<T> transpose(const MatrixT<T>& a) {
    MatrixT<T> t(a.cols(), a.rows());
    for (int j = 0; j < a.cols(); ++j)
        for (int i = 0; i < a.rows(); ++i) t(j, i) = a(i, j);
    return t;
}

template <class T>
MatrixT<T> operator+(const MatrixT<T>& a, const MatrixT<T>& b) {
    check(a.rows() == b.rows() && a.cols() == b.cols(), "matrix +: shape mismatch");
    MatrixT<T> c = a;
    for (std::size_t i = 0; i < c.raw().size(); ++i) c.raw()[i] += b.raw()[i];
    return c;
}

template <class T>
MatrixT<T> operator-(const MatrixT<T>& a, const MatrixT<T>& b) {
    check(a.rows() == b.rows() && a.cols() == b.cols(), "matrix -: shape mismatch");
    MatrixT<T> c = a;
    for (std::size_t i = 0; i < c.raw().size(); ++i) c.raw()[i] -= b.raw()[i];
    return c;
}

template <class T>
MatrixT<T> operator*(T alpha, const MatrixT<T>& a) {
    MatrixT<T> c = a;
    for (T& v : c.raw()) v *= alpha;
    return c;
}

template <class T>
MatrixT<T> operator*(const MatrixT<T>& a, const MatrixT<T>& b) {
    return matmul(a, b);
}

template <class T>
VectorT<T> operator*(const MatrixT<T>& a, const VectorT<T>& x) {
    return matvec(a, x);
}

// ---------------------------------------------------------------------------
// Norms, comparisons, assembly helpers
// ---------------------------------------------------------------------------

/// Frobenius norm.
template <class T>
double norm_fro(const MatrixT<T>& a) {
    double acc = 0;
    for (const T& v : a.raw()) acc += std::norm(v);
    return std::sqrt(acc);
}

/// Max absolute entry.
template <class T>
double norm_max(const MatrixT<T>& a) {
    double m = 0;
    for (const T& v : a.raw()) m = std::max(m, std::abs(v));
    return m;
}

/// Max absolute entry of a vector.
template <class T>
double norm_max(const VectorT<T>& a) {
    double m = 0;
    for (int i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i]));
    return m;
}

/// Horizontal concatenation [A | B].
template <class T>
MatrixT<T> hcat(const MatrixT<T>& a, const MatrixT<T>& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    check(a.rows() == b.rows(), "hcat: row mismatch");
    MatrixT<T> c(a.rows(), a.cols() + b.cols());
    for (int j = 0; j < a.cols(); ++j)
        for (int i = 0; i < a.rows(); ++i) c(i, j) = a(i, j);
    for (int j = 0; j < b.cols(); ++j)
        for (int i = 0; i < b.rows(); ++i) c(i, a.cols() + j) = b(i, j);
    return c;
}

/// Promotes a real matrix to complex (for frequency-domain evaluations).
inline ZMatrix to_complex(const Matrix& a) {
    ZMatrix z(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.raw().size(); ++i) z.raw()[i] = a.raw()[i];
    return z;
}

/// Promotes a real vector to complex.
inline ZVector to_complex(const Vector& a) {
    ZVector z(a.size());
    for (int i = 0; i < a.size(); ++i) z[i] = a[i];
    return z;
}

/// G + s*C over complex s: the resolvent pencil used in frequency sweeps.
inline ZMatrix pencil(const Matrix& g, const Matrix& c, cplx s) {
    check(g.rows() == c.rows() && g.cols() == c.cols(), "pencil: shape mismatch");
    ZMatrix z(g.rows(), g.cols());
    for (std::size_t i = 0; i < z.raw().size(); ++i)
        z.raw()[i] = g.raw()[i] + s * c.raw()[i];
    return z;
}

/// Symmetric part (A + A^T)/2 — input to the passivity checker.
inline Matrix symmetric_part(const Matrix& a) {
    check(a.rows() == a.cols(), "symmetric_part: square matrix required");
    Matrix s(a.rows(), a.cols());
    for (int j = 0; j < a.cols(); ++j)
        for (int i = 0; i < a.rows(); ++i) s(i, j) = 0.5 * (a(i, j) + a(j, i));
    return s;
}

}  // namespace varmor::la
