#pragma once

#include "la/dense.h"

namespace varmor::la {

/// The default relative dependence tolerance of cgs2 (see below).
inline constexpr double kDropTol = 1e-10;

/// Options for the deflating orthonormalization used to assemble Krylov
/// projection bases.
struct OrthOptions {
    /// A column is linearly dependent on the basis built so far, and is
    /// dropped (deflation), when cgs2 finds it in the span at this tolerance.
    double drop_tol = kDropTol;
};

/// Classical Gram-Schmidt run twice (CGS2, "twice is enough"): projects w off
/// the first k columns of the orthonormal `basis`, in place. Each pass
/// computes c = V^T w with one simd::dot_n per column, then w -= V c with
/// simd::fnma_n. The two passes' coefficients are summed into coef[0, k);
/// work[0, k) holds the second pass's. Nothing is allocated, and the result
/// depends on the shapes alone (the dot_n order), never on the caller's
/// thread.
///
/// Returns the norm of w after the projection, or exactly 0 when w is in the
/// span: when that norm is at most drop_tol times its norm before (so a zero
/// w is in every span). This one relative rule decides deflation in
/// extend_basis and breakdown in sparse::arnoldi_eigenvalues and
/// sparse::truncated_svd_lanczos; the last two use kDropTol.
double cgs2(const Matrix& basis, int k, Vector& w, double* coef, double* work,
            double drop_tol = kDropTol);

/// Orthonormalizes the columns of `candidates` against themselves, dropping
/// linearly dependent columns. Returns a matrix with orthonormal columns
/// whose span equals span(candidates) up to the deflation tolerance.
Matrix orthonormalize(const Matrix& candidates, const OrthOptions& opts = {});

/// Extends an existing orthonormal basis `basis` with the directions of
/// `extra` not already represented, returning the enlarged orthonormal basis.
/// This is the multi-point-expansion "combine the projection matrices" step.
/// Accepted columns are appended to `basis`'s own storage, so a caller that
/// moves its basis in (`b = extend_basis(std::move(b), ...)`) grows it in
/// place without copying it.
Matrix extend_basis(Matrix basis, const Matrix& extra, const OrthOptions& opts = {});

/// Max deviation of V^T V from identity — test/diagnostic helper.
double orthonormality_error(const Matrix& v);

}  // namespace varmor::la
