#pragma once

#include "la/svd.h"
#include "sparse/linear_operator.h"
#include "util/rng.h"

namespace varmor::sparse {

/// Options for the matrix-implicit truncated SVD.
struct TruncatedSvdOptions {
    int max_iterations = 200;   ///< Lanczos steps / power iterations cap
    double tol = 1e-10;         ///< relative convergence tolerance on singular values
    std::uint64_t seed = 7;     ///< start-vector seed (deterministic)
    int oversample = 8;         ///< extra subspace dimensions (randomized method)
    int power_iterations = 2;   ///< power passes (randomized method)
};

/// Rank-k truncated SVD of a matrix-free operator via Golub-Kahan-Lanczos
/// bidiagonalization with full reorthogonalization by la::cgs2 (Larsen [15]
/// without the partial-reorth economization — the ranks varmor needs are
/// tiny, the paper observes rank 1 usually suffices). It stops when a new
/// Lanczos vector falls in the span by cgs2's relative rule: the operator's
/// Krylov space is exhausted.
la::SvdResult truncated_svd_lanczos(const LinearOperator& op, int rank,
                                    const TruncatedSvdOptions& opts = {});

/// Rank-k truncated SVD via randomized range finding (Halko-Martinsson-Tropp)
/// with power iterations. Alternative engine used for cross-checking and in
/// the rank ablation bench.
la::SvdResult truncated_svd_randomized(const LinearOperator& op, int rank,
                                       const TruncatedSvdOptions& opts = {});

}  // namespace varmor::sparse
