#pragma once

#include "la/dense.h"

namespace varmor::la {

/// Options for the deflating orthonormalization used to assemble Krylov
/// projection bases.
struct OrthOptions {
    /// Columns whose norm after projection falls below
    /// drop_tol * (their original norm) are considered linearly dependent on
    /// the basis built so far and are dropped (deflation).
    double drop_tol = 1e-10;
    /// Number of modified-Gram-Schmidt passes (2 = classic "twice is enough").
    int reorth_passes = 2;
};

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
