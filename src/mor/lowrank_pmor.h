#pragma once

#include <memory>

#include "circuit/parametric_system.h"
#include "la/dense.h"
#include "la/orth.h"
#include "la/svd.h"
#include "mor/reduced_model.h"
#include "sparse/splu.h"

namespace varmor::mor {

/// Options for Algorithm 1: low-rank-approximation based single-point
/// multi-parameter moment matching (Fig. 2 of the paper — the paper's
/// central contribution).
struct LowRankPmorOptions {
    /// Moment order w.r.t. the frequency variable s: the nominal Krylov
    /// space V0 spans {R0, A0 R0, ..., A0^{s_order} R0}.
    int s_order = 4;

    /// Moment order w.r.t. the variational parameters: each per-parameter
    /// subspace uses `param_order` blocks {U^, A0 U^, ..., A0^{param_order-1} U^}
    /// (and param_order-1 adjoint blocks). The paper uses mixed orders, e.g.
    /// RCNetA matches s to the 4th order and parameters to the 2nd.
    int param_order = 4;

    /// Rank of the SVD approximation of each generalized sensitivity matrix
    /// (k_svd). "In practice, we have observed that a rank-one approximation
    /// is usually sufficient" — section 4.2.
    int rank = 1;

    /// Include the Krylov subspaces w.r.t. A0^T (V_{Gi,2}, V_{Ci,2} in
    /// step 2.2). Doubles the per-parameter basis size but improves accuracy
    /// w.r.t. the *original* (not low-rank) system; dropping them (plus
    /// adding the V^ vectors) still satisfies Theorem 1 — section 4.1.
    bool include_adjoint = true;

    /// Which matrices get the low-rank treatment: the *generalized*
    /// sensitivities G0^-1 Gi (the paper's choice — "stronger connection to
    /// moments") or the raw sensitivities Gi (the inferior alternative the
    /// paper calls out; kept for the ablation bench).
    enum class SensitivitySpace { generalized, raw };
    SensitivitySpace space = SensitivitySpace::generalized;

    /// Truncated-SVD engine: Lanczos bidiagonalization (default, [15]) or
    /// randomized range finding.
    enum class SvdEngine { lanczos, randomized };
    SvdEngine engine = SvdEngine::lanczos;

    la::OrthOptions orth;

    /// Optional cached factorization of sys.g0, shared across runs. The
    /// ablation benches and repeated-timing studies re-run the algorithm
    /// many times on one system; the "one factorization" the paper counts
    /// then really is computed once per system, not once per run. Must be a
    /// factorization of exactly sys.g0.
    std::shared_ptr<const sparse::SparseLu> g0_factor;

    /// Optional symbolic (ordering) cache for g0's pattern, used when
    /// g0_factor is not set. Not owned; must outlive the call.
    const sparse::SpluSymbolic* g0_symbolic = nullptr;
};

/// Diagnostics reported alongside the reduced model.
struct LowRankPmorResult {
    la::Matrix basis;          ///< final projection matrix V
    ReducedModel model;        ///< congruence-projected parametric model
    /// Leading singular values of each generalized sensitivity matrix, in
    /// the order [G-sens param 0.., C-sens param 0..]; shows the fast decay
    /// that justifies rank-1 approximation.
    std::vector<std::vector<double>> sensitivity_spectra;
    /// The rank-k factors U^ S V^^T of each (generalized) sensitivity matrix
    /// in the same order; these define the "nearby" low-rank system of
    /// Theorem 1, which the tests verify moment matching against.
    std::vector<la::SvdResult> sensitivity_factors;
    int factorizations = 1;    ///< always one: the point of the algorithm
    long sparse_solves = 0;    ///< triangular solves performed (linear in k and n_p)
};

/// Algorithm 1. Cost: ONE sparse LU of G0 plus matrix-implicit work. The
/// triangular solves grow linearly in s_order/param_order and in the number
/// of parameters (section 4.2). What dominates the time, though, is the
/// dense O(n q^2) work on the n x q basis: its Gram-Schmidt
/// orthogonalization (la::cgs2) and the step-4 congruence of 2 + 2 n_p
/// matrices. So the algorithm is not priced like one PRIMA run on the
/// nominal system:
/// the benchmark's traced `reduce` run (perfbench, seed 1; 4-vCPU Xeon,
/// AVX2 arm) reads mor.lowrank_over_prima = 24-25, the sum of lowrank_pmor
/// times over the sum of nominal PRIMA times on the same factors. It read
/// 42-44 while the Lanczos storage was sized by its step cap, the basis was
/// copied per Krylov block, and the congruence was not row-blocked.
/// The congruence transform in step 4 projects the ORIGINAL sensitivity
/// matrices (not their low-rank approximations), and preserves passivity.
LowRankPmorResult lowrank_pmor(const circuit::ParametricSystem& sys,
                               const LowRankPmorOptions& opts = {});

/// Predicted model size before deflation, O((k_s+1)m + n_p * rank * (2k_p-1)
/// + ...) — the closed-form bookkeeping of section 4.2, exposed for the
/// size-complexity bench.
int lowrank_pmor_predicted_size(int num_ports, int num_params,
                                const LowRankPmorOptions& opts);

}  // namespace varmor::mor
