#pragma once

#include <complex>
#include <vector>

#include "sparse/linear_operator.h"
#include "util/rng.h"

namespace varmor::sparse {

/// Result of an Arnoldi run: Ritz values ordered by decreasing magnitude with
/// residual estimates.
struct ArnoldiResult {
    std::vector<la::cplx> ritz_values;   ///< by decreasing |lambda|
    std::vector<double> residuals;       ///< |h_{m+1,m}| (0 once the subspace is invariant)
};

struct ArnoldiOptions {
    int subspace = 60;      ///< Krylov dimension
    std::uint64_t seed = 3; ///< start vector seed
};

/// Plain Arnoldi iteration with full reorthogonalization (la::cgs2) on a
/// matrix-free operator. varmor uses it to find the dominant eigenvalues mu
/// of A = -G^-1 C for a *full-size* circuit; the dominant poles of the
/// transfer function are then s = -1/mu (see analysis/poles.h). The operator
/// only needs apply(), i.e. one sparse solve per step reusing G's
/// factorization. When a new vector falls in the span of the basis by
/// cgs2's relative rule, the subspace is invariant: Arnoldi stops there and
/// its Ritz values are exact.
ArnoldiResult arnoldi_eigenvalues(const LinearOperator& op, const ArnoldiOptions& opts = {});

}  // namespace varmor::sparse
