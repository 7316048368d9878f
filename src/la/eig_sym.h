#pragma once

#include <vector>

#include "la/dense.h"

namespace varmor::la {

/// Eigendecomposition of a real symmetric matrix: A = Q diag(w) Q^T with
/// eigenvalues ascending.
struct SymEigResult {
    std::vector<double> values;  ///< ascending
    Matrix vectors;              ///< columns are the corresponding eigenvectors
};

/// Symmetric eigensolver: Householder tridiagonalization, then implicit QL.
/// The eigenvectors are accumulated by applying every reflector and every
/// rotation to the identity. Works on (A + A^T)/2, so roundoff asymmetry is
/// tolerated. Used for passivity certificates and TBR gramian square roots.
SymEigResult eig_symmetric(const Matrix& a);

// ---------------------------------------------------------------------------
// The building blocks, on caller storage. eig_symmetric above runs the last
// two; mor::RomEvalEngine's RC lane runs all four on the symmetric-definite
// pencil (G~(p), C~(p)) of an RC reduced model. Symmetric inputs are read
// from their lower triangle only.
// ---------------------------------------------------------------------------

/// Cholesky A = L L^T in place: the lower triangle of `a` becomes L, and the
/// strict upper triangle is neither read nor written. Returns false at the
/// first pivot that is not positive, i.e. when A is not numerically positive
/// definite; `a` then holds a partial factor.
bool cholesky_lower(Matrix& a);

/// X <- L^-1 X for the lower-triangular L of cholesky_lower.
void forward_substitute(const Matrix& l, Matrix& x);

/// A <- L^-1 A L^-T on the lower triangle of symmetric A, for the lower
/// triangular L of cholesky_lower: the standard form of the symmetric-
/// definite pencil (A, L L^T), in about n^3 flops (LAPACK's dsygs2).
void reduce_to_standard(Matrix& a, const Matrix& l);

/// Householder reduction of symmetric A to tridiagonal T = Q^T A Q. Reads and
/// destroys the lower triangle of `a`; `d` receives the diagonal of T (n) and
/// `e` its subdiagonal (n - 1). Every reflector is also applied from the left
/// to `carry` (n rows) when it is given, which therefore ends as Q^T carry.
/// `w` is scratch.
void tridiagonalize(Matrix& a, std::vector<double>& d, std::vector<double>& e,
                    Matrix* carry, std::vector<double>& w);

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
/// subdiagonal `e`, by implicit QL with Wilkinson shifts: on return `d`
/// holds them, unordered, and `e` is destroyed. When `z` is given, every
/// rotation is applied to its columns, so a z that enters as Q (with
/// T = Q^T A Q) leaves holding the eigenvectors of A. Throws varmor::Error
/// when an eigenvalue fails to converge.
void tridiagonal_ql(std::vector<double>& d, std::vector<double>& e, Matrix* z);

}  // namespace varmor::la
