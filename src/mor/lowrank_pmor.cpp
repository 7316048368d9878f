#include "mor/lowrank_pmor.h"

#include "la/ops.h"
#include "mor/krylov.h"
#include "sparse/linear_operator.h"
#include "sparse/splu.h"
#include "sparse/svd_iterative.h"
#include "util/check.h"

namespace varmor::mor {

using la::Matrix;
using la::Vector;

namespace {

la::SvdResult run_svd(const sparse::LinearOperator& op, int rank,
                      LowRankPmorOptions::SvdEngine engine) {
    sparse::TruncatedSvdOptions svd_opts;
    return engine == LowRankPmorOptions::SvdEngine::lanczos
               ? sparse::truncated_svd_lanczos(op, rank, svd_opts)
               : sparse::truncated_svd_randomized(op, rank, svd_opts);
}

}  // namespace

LowRankPmorResult lowrank_pmor(const circuit::ParametricSystem& sys,
                               const LowRankPmorOptions& opts) {
    sys.validate();
    check(opts.s_order >= 0, "lowrank_pmor: negative s_order");
    check(opts.param_order >= 1, "lowrank_pmor: param_order must be >= 1");
    check(opts.rank >= 1, "lowrank_pmor: rank must be >= 1");

    const int n = sys.size();
    std::shared_ptr<const sparse::SparseLu> lu_ptr = opts.g0_factor;
    if (!lu_ptr) {
        sparse::SparseLu::Options lu_opts;
        lu_opts.symbolic = opts.g0_symbolic;
        lu_ptr = std::make_shared<const sparse::SparseLu>(sys.g0, lu_opts);
    }
    check(lu_ptr->size() == n, "lowrank_pmor: g0_factor size mismatch");
    const sparse::SparseLu& lu = *lu_ptr;
    const long solves_before = lu.solve_count();

    // A0 = -G0^-1 C0 and its transpose, both backed by the single LU.
    auto apply_a0 = [&](const Vector& x) {
        Vector y = lu.solve(sys.c0.apply(x));
        la::scale(y, -1.0);
        return y;
    };
    auto apply_a0t = [&](const Vector& x) {
        Vector y = sys.c0.apply_transpose(lu.solve_transpose(x));
        la::scale(y, -1.0);
        return y;
    };

    LowRankPmorResult out;
    out.factorizations = 1;

    // Step 2.1: nominal Krylov space V0 = Kr(A0, R0, s_order + 1 blocks).
    const Matrix r0 = lu.solve(sys.b);
    Matrix basis = block_arnoldi(apply_a0, r0, opts.s_order + 1, opts.orth);

    // Steps 1, 2.2, 3: per parameter, low-rank factors of the (generalized)
    // sensitivity matrices seed small Krylov spaces w.r.t. A0 and A0^T that
    // are accumulated into the common basis. The low-rank step is what
    // decouples the parameters: no cross-term subspaces are ever built.
    const bool generalized =
        opts.space == LowRankPmorOptions::SensitivitySpace::generalized;

    auto add_parameter_subspaces = [&](const sparse::Csc& sens) {
        if (sens.nnz() == 0) {
            // Parameter does not touch this matrix (e.g. a thickness
            // parameter with no capacitance effect): nothing to match.
            out.sensitivity_spectra.emplace_back();
            out.sensitivity_factors.push_back(
                {Matrix(n, 0), std::vector<double>{}, Matrix(n, 0)});
            return;
        }
        // Operator for M = G0^-1 * sens (generalized) or sens (raw).
        sparse::LinearOperator op =
            generalized
                ? sparse::LinearOperator(
                      n, n, [&](const Vector& x) { return lu.solve(sens.apply(x)); },
                      [&](const Vector& x) {
                          return sens.apply_transpose(lu.solve_transpose(x));
                      })
                : sparse::LinearOperator(
                      n, n, [&](const Vector& x) { return sens.apply(x); },
                      [&](const Vector& x) { return sens.apply_transpose(x); });

        const la::SvdResult svd = run_svd(op, opts.rank, opts.engine);
        out.sensitivity_spectra.push_back(svd.s);
        out.sensitivity_factors.push_back(svd);

        // Primal space: Kr(A0, U^, param_order blocks).
        basis = block_arnoldi_extend(std::move(basis), apply_a0, svd.u,
                                     opts.param_order, opts.orth);
        if (opts.include_adjoint) {
            // Adjoint space: Kr(A0^T, V~ = -G0^-T V^, param_order - 1 blocks).
            // (For raw sensitivities V~ = V^ directly, mirroring the primal.)
            Matrix vt = svd.v;
            if (generalized) {
                vt = lu.solve_transpose(svd.v);
                for (double& x : vt.raw()) x = -x;
            }
            const int adj_blocks = std::max(1, opts.param_order - 1);
            basis = block_arnoldi_extend(std::move(basis), apply_a0t, vt, adj_blocks,
                                         opts.orth);
        } else {
            // Theorem 1 without the adjoint spaces requires adding V^ itself.
            basis = la::extend_basis(std::move(basis), svd.v, opts.orth);
        }
    };

    for (const sparse::Csc& gi : sys.dg) add_parameter_subspaces(gi);
    for (const sparse::Csc& ci : sys.dc) add_parameter_subspaces(ci);

    // Step 4: congruence transform of the ORIGINAL matrices.
    out.model = project(sys, basis);
    out.basis = std::move(basis);
    out.sparse_solves = lu.solve_count() - solves_before;
    return out;
}

int lowrank_pmor_predicted_size(int num_ports, int num_params,
                                const LowRankPmorOptions& opts) {
    const int v0 = (opts.s_order + 1) * num_ports;
    const int primal = opts.param_order * opts.rank;
    const int adjoint = opts.include_adjoint ? std::max(1, opts.param_order - 1) * opts.rank
                                             : opts.rank;  // the V^ columns
    // Two sensitivity matrices (G and C) per parameter.
    return v0 + 2 * num_params * (primal + adjoint);
}

}  // namespace varmor::mor
