#include "la/orth.h"

#include <cmath>

#include "la/ops.h"

namespace varmor::la {

namespace {

/// Projects v onto the orthogonal complement of the columns of `basis`, in
/// place (one modified-Gram-Schmidt pass).
void mgs_pass(const Matrix& basis, Vector& v) {
    for (int j = 0; j < basis.cols(); ++j) {
        const double* q = basis.col_data(j);
        double coef = 0;
        for (int i = 0; i < v.size(); ++i) coef += q[i] * v[i];
        for (int i = 0; i < v.size(); ++i) v[i] -= coef * q[i];
    }
}

}  // namespace

Matrix orthonormalize(const Matrix& candidates, const OrthOptions& opts) {
    return extend_basis(Matrix(candidates.rows(), 0), candidates, opts);
}

Matrix extend_basis(Matrix basis, const Matrix& extra, const OrthOptions& opts) {
    if (basis.empty())
        basis = Matrix(extra.rows(), 0);
    else if (!extra.empty())
        check(basis.rows() == extra.rows(), "extend_basis: row mismatch");

    for (int j = 0; j < extra.cols(); ++j) {
        Vector w = extra.col(j);
        const double original = norm2(w);
        if (original == 0.0) continue;
        for (int pass = 0; pass < opts.reorth_passes; ++pass) mgs_pass(basis, w);
        const double remaining = norm2(w);
        if (remaining <= opts.drop_tol * original) continue;  // deflated
        const double inv = 1.0 / remaining;
        for (int i = 0; i < w.size(); ++i) w[i] *= inv;
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
