#include "la/orth.h"

#include <algorithm>
#include <cmath>

#include "la/ops.h"
#include "la/simd.h"

namespace varmor::la {

double cgs2(const Matrix& basis, int k, Vector& w, double* coef, double* work,
            double drop_tol) {
    check(w.size() == basis.rows() && k >= 0 && k <= basis.cols(), "cgs2: shape mismatch");
    const int n = w.size();
    double* x = w.data();
    const double before = norm2(w);
    for (int pass = 0; pass < 2; ++pass) {
        double* c = pass == 0 ? coef : work;
        for (int j = 0; j < k; ++j) c[j] = simd::dot_n(n, basis.col_data(j), x);
        for (int j = 0; j < k; ++j) simd::fnma_n(n, c[j], basis.col_data(j), x);
    }
    for (int j = 0; j < k; ++j) coef[j] += work[j];
    const double after = norm2(w);
    return after <= drop_tol * before ? 0.0 : after;
}

Matrix orthonormalize(const Matrix& candidates, const OrthOptions& opts) {
    return extend_basis(Matrix(candidates.rows(), 0), candidates, opts);
}

Matrix extend_basis(Matrix basis, const Matrix& extra, const OrthOptions& opts) {
    if (basis.empty())
        basis = Matrix(extra.rows(), 0);
    else if (!extra.empty())
        check(basis.rows() == extra.rows(), "extend_basis: row mismatch");

    // cgs2's coefficients and second-pass scratch, sized for the final basis.
    const int cap = basis.cols() + extra.cols();
    std::vector<double> coef(2 * static_cast<std::size_t>(cap));
    Vector w(extra.rows());
    for (int j = 0; j < extra.cols(); ++j) {
        std::copy_n(extra.col_data(j), extra.rows(), w.data());
        const double remaining =
            cgs2(basis, basis.cols(), w, coef.data(), coef.data() + cap, opts.drop_tol);
        if (remaining == 0.0) continue;  // in the span: deflated
        scale(w, 1.0 / remaining);
        basis.append_col(w);
    }
    return basis;
}

double orthonormality_error(const Matrix& v) {
    const Matrix gram = matmul_transA(v, v);
    double err = 0;
    for (int j = 0; j < gram.cols(); ++j)
        for (int i = 0; i < gram.rows(); ++i)
            err = std::max(err, std::abs(gram(i, j) - (i == j ? 1.0 : 0.0)));
    return err;
}

}  // namespace varmor::la
