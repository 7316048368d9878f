#include "sparse/svd_iterative.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/ops.h"
#include "la/orth.h"

namespace varmor::sparse {

using la::Matrix;
using la::SvdResult;
using la::Vector;

SvdResult truncated_svd_lanczos(const LinearOperator& op, int rank,
                                const TruncatedSvdOptions& opts) {
    check(rank >= 1, "truncated_svd_lanczos: rank must be positive");
    check(op.has_transpose(), "truncated_svd_lanczos: operator needs a transpose");
    const int m = op.rows(), n = op.cols();
    const int kmax = std::min({opts.max_iterations, m, n});
    check(kmax >= 1, "truncated_svd_lanczos: empty operator");

    // The Lanczos vectors grow by one column per step taken: convergence
    // usually comes within a handful of steps, far below kmax. Column k of
    // vv joins together with column k of uu, so both hold exactly the
    // accepted steps.
    util::Rng rng(opts.seed);
    Matrix uu(m, 0);  // left Lanczos vectors
    Matrix vv(n, 0);  // right Lanczos vectors
    std::vector<double> alpha, beta;
    // la::cgs2's coefficients and second-pass scratch.
    std::vector<double> coef(2 * static_cast<std::size_t>(kmax));
    double* work = coef.data() + kmax;

    // Start vector.
    Vector v(n);
    for (int i = 0; i < n; ++i) v[i] = rng.normal();
    la::scale(v, 1.0 / la::norm2(v));

    std::vector<double> prev_sv;
    for (int k = 0; k < kmax; ++k) {
        // u_k = M v_k - beta_{k-1} u_{k-1}, by CGS2 against every u so far.
        Vector u = op.apply(v);
        const double unorm = la::cgs2(uu, uu.cols(), u, coef.data(), work);
        if (unorm == 0.0) {
            // M v_k is in span(U): the Krylov space is exhausted. Record
            // alpha_k = 0 and keep v_k, so beta_{k-1} stays in B; the zero u
            // column meets only B's zero last row.
            if (k > 0) {
                alpha.push_back(0.0);
                uu.append_col(Vector(m));
                vv.append_col(v);
            }
            break;
        }
        la::scale(u, 1.0 / unorm);
        alpha.push_back(unorm);
        uu.append_col(u);
        vv.append_col(v);

        // Convergence check on the bidiagonal section every few steps.
        if (static_cast<int>(alpha.size()) >= rank && (k % 2 == 1 || k == kmax - 1)) {
            Matrix b(static_cast<int>(alpha.size()), static_cast<int>(alpha.size()));
            for (std::size_t i = 0; i < alpha.size(); ++i) {
                b(static_cast<int>(i), static_cast<int>(i)) = alpha[i];
                if (i + 1 < alpha.size()) b(static_cast<int>(i), static_cast<int>(i) + 1) = beta[i];
            }
            const SvdResult bs = la::svd(b);
            std::vector<double> sv(bs.s.begin(),
                                   bs.s.begin() + std::min<std::size_t>(bs.s.size(),
                                                                        static_cast<std::size_t>(rank)));
            if (prev_sv.size() == sv.size()) {
                double rel = 0;
                for (std::size_t i = 0; i < sv.size(); ++i)
                    rel = std::max(rel, std::abs(sv[i] - prev_sv[i]) /
                                            (std::abs(sv[i]) + 1e-300));
                if (rel < opts.tol) {
                    prev_sv = sv;
                    break;
                }
            }
            prev_sv = sv;
        }

        if (k + 1 == kmax) break;
        // v_{k+1} = M^T u_k - alpha_k v_k, by CGS2 against every v so far.
        Vector w = op.apply_transpose(u);
        const double wnorm = la::cgs2(vv, vv.cols(), w, coef.data(), work);
        if (wnorm == 0.0) break;  // M^T u_k is in span(V): beta_k = 0 ends B
        la::scale(w, 1.0 / wnorm);
        beta.push_back(wnorm);
        v = std::move(w);
    }

    const int steps = uu.cols();
    check(steps >= 1, "truncated_svd_lanczos: breakdown before first step");

    // SVD of the bidiagonal section B (steps x steps).
    Matrix b(steps, steps);
    for (int i = 0; i < steps; ++i) {
        b(i, i) = alpha[static_cast<std::size_t>(i)];
        if (i + 1 < steps) b(i, i + 1) = beta[static_cast<std::size_t>(i)];
    }
    const SvdResult bs = la::svd(b);
    const int r = std::min(rank, steps);
    return {la::matmul(uu, bs.u.cols_range(0, r)),
            std::vector<double>(bs.s.begin(), bs.s.begin() + r),
            la::matmul(vv, bs.v.cols_range(0, r))};
}

SvdResult truncated_svd_randomized(const LinearOperator& op, int rank,
                                   const TruncatedSvdOptions& opts) {
    check(rank >= 1, "truncated_svd_randomized: rank must be positive");
    check(op.has_transpose(), "truncated_svd_randomized: operator needs a transpose");
    const int m = op.rows(), n = op.cols();
    const int l = std::min(rank + opts.oversample, std::min(m, n));

    util::Rng rng(opts.seed);
    // Range finder: Y = (M M^T)^p M Omega, orthonormalized between passes.
    Matrix y(m, l);
    for (int j = 0; j < l; ++j) {
        Vector w(n);
        for (int i = 0; i < n; ++i) w[i] = rng.normal();
        y.set_col(j, op.apply(w));
    }
    Matrix q = la::orthonormalize(y);
    for (int it = 0; it < opts.power_iterations; ++it) {
        Matrix z(n, q.cols());
        for (int j = 0; j < q.cols(); ++j) z.set_col(j, op.apply_transpose(q.col(j)));
        z = la::orthonormalize(z);
        Matrix y2(m, z.cols());
        for (int j = 0; j < z.cols(); ++j) y2.set_col(j, op.apply(z.col(j)));
        q = la::orthonormalize(y2);
    }

    // Small projected problem: B^T = M^T Q (n x l), SVD of B = Q^T M.
    Matrix bt(n, q.cols());
    for (int j = 0; j < q.cols(); ++j) bt.set_col(j, op.apply_transpose(q.col(j)));
    const SvdResult bs = la::svd(la::transpose(bt));
    const int r = std::min(rank, static_cast<int>(bs.s.size()));

    SvdResult out{la::matmul(q, bs.u.cols_range(0, r)),
                  std::vector<double>(bs.s.begin(), bs.s.begin() + r),
                  bs.v.cols_range(0, r)};
    return out;
}

}  // namespace varmor::sparse
