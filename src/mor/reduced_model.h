#pragma once

#include <complex>
#include <vector>

#include "circuit/parametric_system.h"
#include "la/dense.h"

namespace varmor::mor {

/// Dense parametric reduced-order model
///
///   { G~0, C~0, G~i, C~i, B~, L~ },   G~(p) = G~0 + sum p_i G~i, ...
///
/// produced by congruence projection of a ParametricSystem (eq. (2) of the
/// paper applied to every system matrix including the sensitivities, step 4
/// of Algorithm 1).
struct ReducedModel {
    la::Matrix g0;
    la::Matrix c0;
    std::vector<la::Matrix> dg;
    std::vector<la::Matrix> dc;
    la::Matrix b;
    la::Matrix l;

    int size() const { return g0.rows(); }
    int num_ports() const { return b.cols(); }
    int num_params() const { return static_cast<int>(dg.size()); }

    /// G~(p).
    la::Matrix g_at(const std::vector<double>& p) const;

    /// C~(p).
    la::Matrix c_at(const std::vector<double>& p) const;

    /// Transfer function H(s, p) = L~^T (G~(p) + s C~(p))^-1 B~  (m x m).
    ///
    /// One-shot convenience: allocates fresh matrices per call. Batch
    /// drivers (MC studies, sweeps) should evaluate through RomEvalEngine
    /// (mor/rom_eval.h), which shares these exact kernels — engine results
    /// are bit-identical to a loop of transfer() calls — but amortizes the
    /// parameter stamping and the per-sample preparation of its lane, and
    /// reuses all scratch.
    la::ZMatrix transfer(la::cplx s, const std::vector<double>& p) const;

    /// Analytic parameter sensitivity of the transfer function,
    ///   dH/dp_i = -L~^T K^-1 (G~_i + s C~_i) K^-1 B~,  K = G~(p) + s C~(p).
    /// This is what makes the parametric ROM useful for yield/sensitivity
    /// analysis: derivatives come at dense-solve cost, no finite differences
    /// on the full system.
    la::ZMatrix transfer_sensitivity(la::cplx s, const std::vector<double>& p,
                                     int param) const;

    /// All finite poles of the pencil (G~(p), C~(p)): the values s where
    /// G~ + s C~ is singular, i.e. s = -1/mu for nonzero eigenvalues mu of
    /// G~^-1 C~. Sorted by increasing |s| (most dominant first). A batch of
    /// one on RomEvalEngine::poles, so RC models get real poles from the
    /// symmetric tridiagonal lane.
    std::vector<la::cplx> poles(const std::vector<double>& p) const;
};

/// Congruence projection of the full parametric system onto colspan(v):
/// G~ = V^T G V (and all sensitivities), B~ = V^T B, L~ = V^T L.
/// Passivity of the parametric model is preserved because the projection is
/// one-sided with the same V on both sides.
ReducedModel project(const circuit::ParametricSystem& sys, const la::Matrix& v);

}  // namespace varmor::mor
