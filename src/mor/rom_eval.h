#pragma once

#include <complex>
#include <vector>

#include "la/dense.h"
#include "la/lu_dense.h"
#include "mor/reduced_model.h"

namespace varmor::mor {

/// Per-worker scratch for RomEvalEngine: the accumulated parameter matrices,
/// the per-sample Hessenberg data of the transfer path, the dense LU
/// workspaces and the per-frequency solve targets. All storage is reused
/// across (sample, frequency) points — after warm-up a frequency evaluation
/// performs no allocation beyond its returned m x m result. One instance per
/// thread in the batch drivers; not shared.
struct RomEvalWorkspace {
    la::Matrix gp;                      ///< G~(p) of the stamped sample
    la::Matrix cp;                      ///< C~(p) of the stamped sample
    la::DenseLuWorkspace<double> glu;   ///< factorization of G~(p)
    la::DenseLuWorkspace<la::cplx> klu; ///< direct pencil factorization (sensitivities)
    // Per-sample transfer data (prepared lazily on the first frequency).
    la::Matrix hh;   ///< H = Q^T (G^-1 C) Q, upper Hessenberg (q x q)
    la::Matrix ht;   ///< H^T — row j of H contiguous, for the stamped solve
    la::Matrix qh;   ///< accumulated orthogonal Q                (q x q)
    la::Matrix rh;   ///< Q^T G^-1 B~                             (q x m)
    la::ZMatrix lqz; ///< L~^T Q promoted to complex              (m x q)
    // Per-sample sensitivity data (promoted lazily on the first
    // transfer_sensitivity of the sample — transfer-only traffic never
    // pays for it).
    la::ZMatrix qz;  ///< Q promoted to complex                   (q x q)
    la::ZMatrix qtz; ///< Q^T promoted to complex                 (q x q)
    // Per-frequency targets.
    la::ZMatrix ms;  ///< (I + sH)^T stamped per frequency        (q x q)
    la::ZMatrix xs;  ///< Hessenberg solve target                 (q x m)
    la::ZMatrix x;   ///< K^-1 B~ of the sensitivity path         (q x m)
    la::ZMatrix dkx; ///< sensitivity chain                       (q x m)
    la::ZMatrix dk;  ///< dG~_i + s dC~_i                         (q x q)
    la::Matrix yr;   ///< Re scratch of the sensitivity G~ solve  (q x m)
    la::Matrix yi;   ///< Im scratch of the sensitivity G~ solve  (q x m)
    la::Matrix ac;   ///< G~(p)^-1 C~(p) of the pole path         (q x q)
    std::vector<double> hv;  ///< Householder scratch
    // Fixed-size direct-lane scratch (identity-padded pencil, q < 20).
    std::vector<la::cplx> kpad;  ///< padded pencil, N x N column-major
    std::vector<la::cplx> xpad;  ///< padded solve target, N x m
    std::vector<int> kperm;      ///< padded row permutation
    bool stamped = false;        ///< gp/cp hold a valid sample
    bool transfer_ready = false; ///< hh/qh/rh/lqz match the stamped sample
    bool sens_ready = false;     ///< qz/qtz match the stamped sample
    /// transfer() uses the direct dense-pencil kernel instead of the
    /// Hessenberg split — either because the model is small (q below
    /// RomEvalEngine::kDirectPathOrder, where the per-sample Hessenberg
    /// preparation costs more than it saves) or because G~(p) is singular at
    /// this sample. Both the small-q fast lane and the singular-G fallback
    /// route through the SAME kernel, and the choice depends only on (q, the
    /// stamped values), so looped and batched evaluation agree bitwise.
    bool direct_path = false;
};

/// Batched evaluator of a fixed ReducedModel — the reduced-side counterpart
/// of the sparse batched solve engine (README "performance architecture").
///
/// Construction packs the affine family { G~0, G~i } / { C~0, C~i } into two
/// contiguous buffers and promotes B~ / L~^T to complex once. Evaluation
/// splits per-point work by what it depends on:
///
///   per SAMPLE   stamp_parameters(p): G~(p), C~(p) by one pass over the
///                packed terms; the first transfer() then factors G~(p),
///                forms A = G~^-1 C~ and reduces it to upper Hessenberg
///                H = Q^T A Q (Householder, accumulated Q) — all real
///                arithmetic, O(q^3), paid once per sample;
///   per FREQUENCY transfer(s): K^-1 B~ = Q (I + sH)^-1 Q^T G~^-1 B~, so a
///                frequency point is one complex HESSENBERG solve — O(q^2)
///                instead of the O(q^3) dense LU of the naive path — on
///                reusable workspaces with blocked kernels.
///
/// ReducedModel::transfer() routes through this engine as a batch of one, so
/// there is ONE transfer code path and batched grids are bit-identical to a
/// serial loop of transfer() calls at any thread count.
class RomEvalEngine {
public:
    /// Reduced orders below this evaluate transfer() through the direct
    /// dense-pencil kernel (one O(q^3) factorization per frequency) instead
    /// of the Hessenberg split: at q ~ 20 the O(q^3)-per-sample Hessenberg
    /// preparation stops paying for itself, and one-shot single-frequency
    /// calls (ReducedModel::transfer, the engine's batch-of-one) skip the
    /// preparation entirely. Both paths share one kernel, so batch grids
    /// stay bit-identical to looped calls on either side of the threshold.
    /// Trade-off: a many-frequency grid on a q just under the threshold
    /// pays O(q^3) per point where the Hessenberg path would pay O(q^2) —
    /// bounded by the tiny absolute cost at q < 20, and required to keep
    /// the branch a function of q alone (the bit-identity contract).
    static constexpr int kDirectPathOrder = 20;

    explicit RomEvalEngine(const ReducedModel& model);

    int size() const { return q_; }
    int num_ports() const { return m_; }
    int num_params() const { return np_; }

    /// Accumulates G~(p) and C~(p) into the workspace. Must precede
    /// transfer() / transfer_sensitivity() / poles() for that sample; a
    /// stamped workspace serves any number of frequency points.
    void stamp_parameters(const std::vector<double>& p, RomEvalWorkspace& ws) const;

    /// H(s, p) = L~^T K^-1 B~ for the stamped sample (m x m), via the
    /// per-sample Hessenberg form (prepared on the first call per sample).
    la::ZMatrix transfer(la::cplx s, RomEvalWorkspace& ws) const;

    /// dH/dp_i = -L~^T K^-1 (G~_i + s C~_i) K^-1 B~ for the stamped sample
    /// (m x m). Routed through the SAME per-sample Hessenberg form as
    /// transfer(): with K^-1 = Q (I + sH)^-1 Q^T G~^-1, a sensitivity point
    /// is two O(q^2) Hessenberg solves plus one real G~ substitution — no
    /// per-frequency complex factorization, so grids of sensitivities
    /// amortize the O(q^3) preparation exactly like transfer grids do. The
    /// direct lane (q < kDirectPathOrder, or singular G~(p)) keeps the dense
    /// pencil factorization; the branch depends only on (q, stamped values),
    /// so looped and batched evaluation agree bitwise.
    la::ZMatrix transfer_sensitivity(la::cplx s, int param, RomEvalWorkspace& ws) const;

    /// All finite poles of the pencil (G~(p), C~(p)) for the stamped sample,
    /// sorted by increasing |s|. Bit-identical to ReducedModel::poles().
    std::vector<la::cplx> poles(RomEvalWorkspace& ws) const;

    /// The batched hot path: H(s_points[j], samples[i]) for the whole
    /// (samples x frequencies) grid, fanned over util::ThreadPool with
    /// deterministic contiguous chunking (`threads` is the section width).
    /// Each worker stamps and Hessenberg-reduces a sample once and sweeps
    /// its frequencies on reused scratch; results are bit-identical at any
    /// width.
    std::vector<std::vector<la::ZMatrix>> transfer_grid(
        const std::vector<std::vector<double>>& samples,
        const std::vector<la::cplx>& s_points, int threads = 0) const;

private:
    void prepare_transfer(RomEvalWorkspace& ws) const;

    int q_ = 0;   ///< reduced order
    int np_ = 0;  ///< number of parameters
    int m_ = 0;   ///< number of ports
    // Packed affine terms: block 0 is the nominal matrix, block i+1 the i-th
    // sensitivity, each q*q column-major — one contiguous stream per family.
    std::vector<double> g_terms_;
    std::vector<double> c_terms_;
    la::Matrix b_;     ///< B~ (q x m)
    la::Matrix l_;     ///< L~ (q x m)
    la::ZMatrix bz_;   ///< B~ promoted to complex (q x m)
    la::ZMatrix lzt_;  ///< L~^T promoted to complex (m x q)
};

}  // namespace varmor::mor
