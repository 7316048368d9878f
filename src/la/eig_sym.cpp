#include "la/eig_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "la/ops.h"
#include "la/simd.h"

namespace varmor::la {

bool cholesky_lower(Matrix& a) {
    check(a.rows() == a.cols(), "cholesky_lower: square matrix required");
    const int n = a.rows();
    for (int j = 0; j < n; ++j) {
        double* cj = a.col_data(j);
        if (!(cj[j] > 0.0)) return false;  // also rejects NaN
        const double ljj = std::sqrt(cj[j]);
        cj[j] = ljj;
        simd::scale_n(n - j - 1, 1.0 / ljj, cj + j + 1);
        // Right-looking: A(k:, k) -= L(k, j) L(k:, j) for the trailing columns.
        for (int k = j + 1; k < n; ++k)
            simd::fnma_n(n - k, cj[k], cj + k, a.col_data(k) + k);
    }
    return true;
}

void forward_substitute(const Matrix& l, Matrix& x) {
    check(l.rows() == l.cols() && x.rows() == l.rows(),
          "forward_substitute: dimension mismatch");
    const int n = l.rows();
    for (int c = 0; c < x.cols(); ++c) {
        double* xc = x.col_data(c);
        for (int j = 0; j < n; ++j) {
            const double* lj = l.col_data(j);
            xc[j] /= lj[j];
            simd::fnma_n(n - j - 1, xc[j], lj + j + 1, xc + j + 1);
        }
    }
}

void reduce_to_standard(Matrix& a, const Matrix& l) {
    check(a.rows() == a.cols() && l.rows() == a.rows() && l.cols() == a.cols(),
          "reduce_to_standard: dimension mismatch");
    const int n = a.rows();
    for (int k = 0; k < n; ++k) {
        const double lkk = l(k, k);
        const double akk = a(k, k) / (lkk * lkk);
        a(k, k) = akk;
        const int len = n - k - 1;
        if (len == 0) break;
        double* ak = a.col_data(k) + k + 1;
        const double* lk = l.col_data(k) + k + 1;
        simd::scale_n(len, 1.0 / lkk, ak);
        const double ct = -0.5 * akk;
        simd::axpy_n(len, ct, lk, ak);
        // Symmetric rank-2 update of the trailing lower triangle.
        for (int j = 0; j < len; ++j)
            simd::fnma2_n(len - j, ak[j], lk + j, lk[j], ak + j,
                          a.col_data(k + 1 + j) + (k + 1 + j));
        simd::axpy_n(len, ct, lk, ak);
        // ak <- L(k+1:, k+1:)^-1 ak.
        for (int j = 0; j < len; ++j) {
            const double* lj = l.col_data(k + 1 + j) + (k + 1 + j);
            ak[j] /= lj[0];
            simd::fnma_n(len - j - 1, ak[j], lj + 1, ak + j + 1);
        }
    }
}

void tridiagonalize(Matrix& a, std::vector<double>& d, std::vector<double>& e,
                    Matrix* carry, std::vector<double>& w) {
    check(a.rows() == a.cols(), "tridiagonalize: square matrix required");
    const int n = a.rows();
    check(carry == nullptr || carry->rows() == n, "tridiagonalize: carry row mismatch");
    d.resize(static_cast<std::size_t>(n));
    e.resize(static_cast<std::size_t>(std::max(n - 1, 0)));
    w.resize(static_cast<std::size_t>(n));
    for (int k = 0; k + 1 < n; ++k) {
        d[static_cast<std::size_t>(k)] = a(k, k);
        // Reflector H = I - tau v v^T with v = (1, x[1:] / (alpha - beta))
        // and H x = (beta, 0, ...) for the column below the diagonal, x.
        const int len = n - k - 1;
        double* v = a.col_data(k) + k + 1;
        const double alpha = v[0];
        const double tail2 = simd::dot_n(len - 1, v + 1, v + 1);
        if (tail2 == 0.0) {  // column already reduced: H = I
            e[static_cast<std::size_t>(k)] = alpha;
            continue;
        }
        const double beta = -std::copysign(std::sqrt(alpha * alpha + tail2), alpha);
        const double tau = (beta - alpha) / beta;
        e[static_cast<std::size_t>(k)] = beta;
        simd::scale_n(len - 1, 1.0 / (alpha - beta), v + 1);
        v[0] = 1.0;

        // p = tau A22 v over the lower triangle of A22 = A(k+1:, k+1:),
        // then w = p - (tau/2)(p^T v) v.
        double* p = w.data();
        std::fill(p, p + len, 0.0);
        for (int j = 0; j < len; ++j) {
            const double* col = a.col_data(k + 1 + j) + (k + 1 + j);
            p[j] = simd::fmadd_s(col[0], v[j], p[j]) +
                   simd::axpy_dot_n(len - j - 1, v[j], col + 1, v + j + 1, p + j + 1);
        }
        simd::scale_n(len, tau, p);
        simd::axpy_n(len, -0.5 * tau * simd::dot_n(len, p, v), v, p);

        // A22 -= v w^T + w v^T on the lower triangle.
        for (int j = 0; j < len; ++j)
            simd::fnma2_n(len - j, v[j], p + j, p[j], v + j,
                          a.col_data(k + 1 + j) + (k + 1 + j));
        if (carry != nullptr) {
            for (int c = 0; c < carry->cols(); ++c) {
                double* xc = carry->col_data(c) + k + 1;
                simd::fnma_n(len, tau * simd::dot_n(len, v, xc), v, xc);
            }
        }
    }
    if (n > 0) d[static_cast<std::size_t>(n - 1)] = a(n - 1, n - 1);
}

void tridiagonal_ql(std::vector<double>& d, std::vector<double>& e, Matrix* z) {
    const int n = static_cast<int>(d.size());
    check(static_cast<int>(e.size()) == std::max(n - 1, 0),
          "tridiagonal_ql: subdiagonal length mismatch");
    check(z == nullptr || z->cols() == n, "tridiagonal_ql: vector column mismatch");
    if (n <= 1) return;
    // QL deflates from the top and suits matrices graded with their large
    // entries at the bottom; reverse the order (a permutation similarity)
    // when the grading runs the other way, as LAPACK's dsteqr chooses
    // between QL and QR. On the graded RC tridiagonals this takes a third
    // fewer rotations.
    if (std::abs(d.back()) < std::abs(d.front())) {
        std::reverse(d.begin(), d.end());
        std::reverse(e.begin(), e.end());
        if (z != nullptr)
            for (int j = 0; j < n / 2; ++j)
                std::swap_ranges(z->col_data(j), z->col_data(j) + z->rows(),
                                 z->col_data(n - 1 - j));
    }
    // e[i] couples d[i] and d[i+1]; the trailing zero ends every search.
    e.push_back(0.0);
    // Scale by a power of two to a norm near 1 (exact both ways), so the
    // rotations can take sqrt(f^2 + g^2) without overflow or harmful
    // underflow.
    double norm = 0.0;
    for (int i = 0; i < n; ++i)
        norm = std::max(norm, std::abs(d[static_cast<std::size_t>(i)]) +
                                  std::abs(e[static_cast<std::size_t>(i)]));
    if (norm == 0.0 || !std::isfinite(norm)) {
        e.pop_back();
        check(norm == 0.0, "tridiagonal_ql: non-finite input");
        return;
    }
    const int exp = std::ilogb(norm);
    for (double& x : d) x = std::ldexp(x, -exp);
    for (double& x : e) x = std::ldexp(x, -exp);

    constexpr double eps = std::numeric_limits<double>::epsilon();
    constexpr int kMaxIterations = 60;
    auto at = [](std::vector<double>& v, int i) -> double& {
        return v[static_cast<std::size_t>(i)];
    };
    for (int l = 0; l < n; ++l) {
        for (int iter = 0;; ++iter) {
            int m = l;
            for (; m < n - 1; ++m)
                if (std::abs(at(e, m)) <= eps * (std::abs(at(d, m)) + std::abs(at(d, m + 1))))
                    break;
            if (m == l) break;
            check(iter < kMaxIterations, "tridiagonal_ql: no convergence");
            // Wilkinson shift from the leading 2x2 block, then one implicit
            // QL sweep chasing the bulge from row m up to row l.
            double g = (at(d, l + 1) - at(d, l)) / (2.0 * at(e, l));
            double r = std::sqrt(g * g + 1.0);
            g = at(d, m) - at(d, l) + at(e, l) / (g + std::copysign(r, g));
            double s = 1.0, c = 1.0, p = 0.0;
            int i = m - 1;
            for (; i >= l; --i) {
                const double f = s * at(e, i);
                const double b = c * at(e, i);
                r = std::sqrt(f * f + g * g);
                if (r < 1e-150) r = std::hypot(f, g);  // squares underflowed
                at(e, i + 1) = r;
                if (r == 0.0) {  // split: recover and restart at l
                    at(d, i + 1) -= p;
                    at(e, m) = 0.0;
                    break;
                }
                const double inv = 1.0 / r;
                s = f * inv;
                c = g * inv;
                g = at(d, i + 1) - p;
                r = (at(d, i) - g) * s + 2.0 * c * b;
                p = s * r;
                at(d, i + 1) = g + p;
                g = c * r - b;
                if (z != nullptr) {
                    // Columns i and i+1 of z: (z_i, z_i+1) <- (c z_i - s z_i+1,
                    // s z_i + c z_i+1).
                    simd::rot_n(z->rows(), c, s, z->col_data(i), z->col_data(i + 1));
                }
            }
            if (r == 0.0 && i >= l) continue;
            at(d, l) -= p;
            at(e, l) = g;
            at(e, m) = 0.0;
        }
    }
    for (double& x : d) x = std::ldexp(x, exp);
    e.pop_back();
}

SymEigResult eig_symmetric(const Matrix& a_in) {
    check(a_in.rows() == a_in.cols(), "eig_symmetric: square matrix required");
    const int n = a_in.rows();
    Matrix a = symmetric_part(a_in);  // tolerate tiny asymmetry from roundoff
    // Scale by a power of two (exact) so the reflector norms neither
    // overflow nor underflow on matrices of extreme magnitude.
    const double amax = norm_max(a);
    const int exp = amax > 0.0 && std::isfinite(amax) ? std::ilogb(amax) : 0;
    for (double& v : a.raw()) v = std::ldexp(v, -exp);
    Matrix qt = Matrix::identity(n);
    std::vector<double> d, e, w;
    tridiagonalize(a, d, e, &qt, w);
    Matrix q = transpose(qt);
    tridiagonal_ql(d, e, &q);
    for (double& v : d) v = std::ldexp(v, exp);

    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        return d[static_cast<std::size_t>(x)] < d[static_cast<std::size_t>(y)];
    });
    SymEigResult out{std::vector<double>(static_cast<std::size_t>(n)), Matrix(n, n)};
    for (int j = 0; j < n; ++j) {
        const int src = order[static_cast<std::size_t>(j)];
        out.values[static_cast<std::size_t>(j)] = d[static_cast<std::size_t>(src)];
        std::copy(q.col_data(src), q.col_data(src) + n, out.vectors.col_data(j));
    }
    return out;
}

}  // namespace varmor::la
