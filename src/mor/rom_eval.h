#pragma once

#include <complex>
#include <vector>

#include "la/dense.h"
#include "la/lu_dense.h"
#include "mor/reduced_model.h"

namespace varmor::mor {

/// The lane RomEvalEngine::transfer() takes for a stamped sample.
enum class RomLane {
    unprepared,  ///< the stamped sample has no lane prepared yet
    rc,          ///< symmetric tridiagonal form of an RC model
    hessenberg,  ///< Hessenberg form of G~^-1 C~
    direct,      ///< dense pencil factorization per frequency
};

/// Per-worker scratch for RomEvalEngine: the accumulated parameter matrices,
/// the per-sample data of each lane, the dense LU workspaces and the
/// per-frequency solve targets. All storage is reused across (sample,
/// frequency) points — after warm-up a frequency evaluation performs no
/// allocation beyond its returned m x m result. One instance per thread in
/// the batch drivers; not shared.
struct RomEvalWorkspace {
    la::Matrix gp;                      ///< G~(p) of the stamped sample
    la::Matrix cp;                      ///< C~(p) of the stamped sample
    la::DenseLuWorkspace<double> glu;   ///< factorization of G~(p)
    la::DenseLuWorkspace<la::cplx> klu; ///< direct pencil factorization (sensitivities)
    // Per-sample RC-lane data (prepared lazily on the first transfer/poles).
    la::Matrix lg;   ///< Cholesky factor L of G~(p), lower triangle (q x q)
    la::Matrix tc;   ///< L^-1 C~ L^-T, destroyed by the tridiagonalization
    la::Matrix ty;   ///< Y = Q^T L^-1 B~                           (q x m)
    std::vector<double> td;   ///< diagonal of Tri = Q^T (L^-1 C~ L^-T) Q
    std::vector<double> te;   ///< subdiagonal of Tri
    // Per-frequency RC-lane targets: I + s Tri = L D L^T, unit bidiagonal L.
    std::vector<la::cplx> tpiv;  ///< 1 / D_i
    std::vector<la::cplx> tmul;  ///< subdiagonal l_i of L
    std::vector<la::cplx> tx;    ///< solve targets, q x m column-major
    // Per-sample transfer data of the Hessenberg lane.
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
    bool sens_ready = false;     ///< qz/qtz match the stamped sample

    /// The lane transfer() takes for the stamped sample: RomLane::unprepared
    /// until the sample's first transfer() (or, on an RC model, poles())
    /// prepares it. A report only: it cannot be set from outside.
    RomLane lane() const { return lane_; }

private:
    friend class RomEvalEngine;
    RomLane lane_ = RomLane::unprepared;     ///< transfer()'s lane
    RomLane general_ = RomLane::unprepared;  ///< hessenberg/direct data prepared
};

/// Batched evaluator of a fixed ReducedModel — the reduced-side counterpart
/// of the sparse batched solve engine (README "performance architecture").
///
/// Construction packs the affine family { G~0, G~i } / { C~0, C~i } into two
/// contiguous buffers, promotes B~ / L~^T to complex once, and picks the
/// model's lane family once: a model whose every G~/C~ term is symmetric
/// (within 1e-12 of its largest entry; RC models from congruence measure
/// below 1e-15, RLC models about 2) and whose B~ equals L~ bitwise (every
/// MNA RC model, since congruence keeps G~(p) SPD and C~(p) semidefinite)
/// takes the RC lane; every other model (RLC) takes the general lanes.
/// Evaluation splits per-point work by what it depends on:
///
///   per SAMPLE   stamp_parameters(p): G~(p), C~(p) by one pass over the
///                packed terms. The first transfer()/poles() then prepares
///                the sample's lane, once:
///     RC         G~ = L L^T, T = L^-1 C~ L^-T reduced by Householder
///                reflectors to tridiagonal Tri = Q^T T Q, with
///                Y = Q^T L^-1 B~ carried along (about 3.7 q^3 flops);
///     Hessenberg factor G~, form A = G~^-1 C~ and reduce it to upper
///                Hessenberg H = Q^T A Q (accumulated Q, about 7.3 q^3);
///     direct     nothing (q < kDirectPathOrder, or G~(p) singular).
///   per FREQUENCY transfer(s):
///     RC         H = Y^T (I + s Tri)^-1 Y by one complex-symmetric
///                tridiagonal LDL^T without pivoting — O(q m);
///     Hessenberg K^-1 B~ = Q (I + sH)^-1 Q^T G~^-1 B~, one complex
///                Hessenberg solve — O(q^2 m);
///     direct     one dense LU of the pencil G~ + sC~ — O(q^3).
///
/// An RC sample leaves the RC lane for the general ones (counted in
/// `rom_eval.rc_fallbacks`) when G~(p) is not positive definite or Tri has
/// an eigenvalue below -1e-10 ||Tri||_1 (a semidefinite C~(p) up to the
/// rounding of forming and reducing L^-1 C~ L^-T): the ROM is not passive
/// at that p, and the unpivoted LDL^T has no growth bound there. A point
/// with Re s < 0 on the RC lane runs the direct kernel for the same reason.
/// Every choice is a pure function of the model and the stamped values.
///
/// ReducedModel::transfer() and poles() route through this engine as a batch
/// of one, so there is ONE code path per lane and batched grids are
/// bit-identical to a serial loop of transfer() calls at any thread count.
class RomEvalEngine {
public:
    /// On the general lanes, reduced orders below this evaluate transfer()
    /// through the direct dense-pencil kernel (one O(q^3) factorization per
    /// frequency) instead of the Hessenberg split: at q ~ 20 the
    /// O(q^3)-per-sample Hessenberg preparation stops paying for itself, and
    /// one-shot single-frequency calls skip the preparation entirely. Both
    /// paths share one kernel, so batch grids stay bit-identical to looped
    /// calls on either side of the threshold. Trade-off: a many-frequency
    /// grid on a q just under the threshold pays O(q^3) per point where the
    /// Hessenberg path would pay O(q^2) — bounded by the tiny absolute cost
    /// at q < 20, and required to keep the branch a function of q alone (the
    /// bit-identity contract). The RC lane applies at every q.
    static constexpr int kDirectPathOrder = 20;

    explicit RomEvalEngine(const ReducedModel& model);

    int size() const { return q_; }
    int num_ports() const { return m_; }
    int num_params() const { return np_; }

    /// Accumulates G~(p) and C~(p) into the workspace. Must precede
    /// transfer() / transfer_sensitivity() / poles() for that sample; a
    /// stamped workspace serves any number of frequency points.
    void stamp_parameters(const std::vector<double>& p, RomEvalWorkspace& ws) const;

    /// H(s, p) = L~^T K^-1 B~ for the stamped sample (m x m), on the
    /// sample's lane (prepared on the first call per sample).
    la::ZMatrix transfer(la::cplx s, RomEvalWorkspace& ws) const;

    /// dH/dp_i = -L~^T K^-1 (G~_i + s C~_i) K^-1 B~ for the stamped sample
    /// (m x m), always on the general lanes (an RC sample prepares their
    /// data on its first sensitivity call). With the per-sample Hessenberg
    /// form, K^-1 = Q (I + sH)^-1 Q^T G~^-1, so a sensitivity point
    /// is two O(q^2) Hessenberg solves plus one real G~ substitution — no
    /// per-frequency complex factorization, so grids of sensitivities
    /// amortize the O(q^3) preparation exactly like transfer grids do. The
    /// direct lane (q < kDirectPathOrder, or singular G~(p)) keeps the dense
    /// pencil factorization; the branch depends only on (q, stamped values),
    /// so looped and batched evaluation agree bitwise.
    la::ZMatrix transfer_sensitivity(la::cplx s, int param, RomEvalWorkspace& ws) const;

    /// All finite poles of the pencil (G~(p), C~(p)) for the stamped sample,
    /// sorted by increasing |s|. On the RC lane they are s = -1/lambda for
    /// the eigenvalues lambda of Tri (implicit QL), with imaginary parts
    /// exactly 0; otherwise s = -1/mu for the eigenvalues mu of G~^-1 C~
    /// (nonsymmetric QR). ReducedModel::poles() is this call on a batch of
    /// one.
    std::vector<la::cplx> poles(RomEvalWorkspace& ws) const;

    /// The batched hot path: H(s_points[j], samples[i]) for the whole
    /// (samples x frequencies) grid, fanned over util::ThreadPool with
    /// deterministic contiguous chunking (`threads` is the section width).
    /// Each worker stamps and prepares a sample once and sweeps
    /// its frequencies on reused scratch; results are bit-identical at any
    /// width.
    std::vector<std::vector<la::ZMatrix>> transfer_grid(
        const std::vector<std::vector<double>>& samples,
        const std::vector<la::cplx>& s_points, int threads = 0) const;

private:
    void prepare_lane(RomEvalWorkspace& ws) const;
    bool prepare_rc(RomEvalWorkspace& ws) const;
    void prepare_general(RomEvalWorkspace& ws) const;
    la::ZMatrix direct_transfer(la::cplx s, RomEvalWorkspace& ws) const;

    int q_ = 0;   ///< reduced order
    int np_ = 0;  ///< number of parameters
    int m_ = 0;   ///< number of ports
    bool rc_ = false;  ///< symmetric terms and B~ == L~: the RC lane applies
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
