#include "sparse/arnoldi.h"

#include <algorithm>
#include <cmath>

#include "la/eig.h"
#include "la/ops.h"
#include "la/orth.h"

namespace varmor::sparse {

using la::cplx;
using la::Matrix;
using la::Vector;

ArnoldiResult arnoldi_eigenvalues(const LinearOperator& op, const ArnoldiOptions& opts) {
    check(op.rows() == op.cols(), "arnoldi_eigenvalues: square operator required");
    const int n = op.rows();
    const int m = std::min(opts.subspace, n);
    check(m >= 1, "arnoldi_eigenvalues: empty operator");

    util::Rng rng(opts.seed);
    Matrix v(n, m + 1);
    Matrix h(m + 1, m);

    Vector v0(n);
    for (int i = 0; i < n; ++i) v0[i] = rng.normal();
    la::scale(v0, 1.0 / la::norm2(v0));
    v.set_col(0, v0);

    int steps = m;
    Vector vk(n);  // reused start-block buffer: no per-iteration col() copies
    std::vector<double> work(static_cast<std::size_t>(m));  // cgs2's second pass
    for (int k = 0; k < m; ++k) {
        const double* vcol = v.col_data(k);
        for (int i = 0; i < n; ++i) vk[i] = vcol[i];
        Vector w = op.apply(vk);
        // CGS2 against v_0..v_k; the coefficients land in column k of H.
        const double wnorm = la::cgs2(v, k + 1, w, h.col_data(k), work.data());
        h(k + 1, k) = wnorm;
        if (wnorm == 0.0) {  // w is in the span: the subspace is invariant, exact
            steps = k + 1;
            break;
        }
        la::scale(w, 1.0 / wnorm);
        v.set_col(k + 1, w);
    }

    // Square Hessenberg section H_m and its eigenvalues.
    Matrix hm(steps, steps);
    for (int j = 0; j < steps; ++j)
        for (int i = 0; i < std::min(steps, j + 2); ++i) hm(i, j) = h(i, j);
    std::vector<cplx> ritz = la::eig_hessenberg(hm);

    // Residual estimate per Ritz value: |h_{m+1,m}| (coarse but monotone; the
    // pole extractor refines by comparing against a larger subspace).
    const double hlast = steps < m + 1 ? std::abs(h(steps, steps - 1)) : 0.0;

    std::vector<int> order(ritz.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return std::abs(ritz[static_cast<std::size_t>(a)]) >
               std::abs(ritz[static_cast<std::size_t>(b)]);
    });

    ArnoldiResult out;
    for (int idx : order) {
        out.ritz_values.push_back(ritz[static_cast<std::size_t>(idx)]);
        out.residuals.push_back(hlast);
    }
    return out;
}

}  // namespace varmor::sparse
