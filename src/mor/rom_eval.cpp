#include "mor/rom_eval.h"

#include <algorithm>
#include <cmath>

#include "la/eig.h"
#include "la/eig_sym.h"
#include "la/hessenberg.h"
#include "la/ops.h"
#include "la/simd.h"
#include "la/small_dense.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace varmor::mor {

using la::cplx;
using la::Matrix;
using la::ZMatrix;

namespace {

/// Largest relative asymmetry max|A - A^T| / max|A| of a G~/C~ term that
/// still admits the RC lane.
constexpr double kRcSymmetryTol = 1e-12;

/// An RC sample keeps its lane while every eigenvalue of Tri is at least
/// -kRcSemidefiniteTol * ||Tri||_1.
constexpr double kRcSemidefiniteTol = 1e-10;

/// Packs base + sensitivity matrices into one contiguous buffer of
/// (1 + num_params) blocks of q*q values (column-major within each block).
std::vector<double> pack_terms(const Matrix& base, const std::vector<Matrix>& terms,
                               int q) {
    check(base.rows() == q && base.cols() == q, "RomEvalEngine: matrix shape mismatch");
    const std::size_t block = static_cast<std::size_t>(q) * static_cast<std::size_t>(q);
    std::vector<double> packed;
    packed.reserve(block * (terms.size() + 1));
    packed.insert(packed.end(), base.raw().begin(), base.raw().end());
    for (const Matrix& t : terms) {
        check(t.rows() == q && t.cols() == q, "RomEvalEngine: sensitivity shape mismatch");
        packed.insert(packed.end(), t.raw().begin(), t.raw().end());
    }
    return packed;
}

/// out = block0 + sum_i p_i * block_{i+1}, same accumulation kernel (and the
/// same skip of exact-zero parameters) as ReducedModel::g_at/c_at — both run
/// simd::axpy_n per term.
void stamp_affine(const std::vector<double>& packed, const std::vector<double>& p,
                  int q, Matrix& out) {
    const std::size_t block = static_cast<std::size_t>(q) * static_cast<std::size_t>(q);
    if (out.rows() != q || out.cols() != q) out = Matrix(q, q);
    std::copy(packed.begin(), packed.begin() + static_cast<std::ptrdiff_t>(block),
              out.raw().begin());
    double* acc = out.raw().data();
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] == 0.0) continue;
        la::simd::axpy_n(static_cast<int>(block), p[i], packed.data() + block * (i + 1),
                         acc);
    }
}

/// The fixed-size direct-lane solve: stamps the identity-padded pencil
/// K_N = diag(G~+sC~, I), factors and substitutes with the fully unrolled
/// small_lu kernels, and leaves the top q rows of K^-1 B~ in ws.x. Bitwise
/// the generic klu path on the embedded q x q block (see la/small_dense.h).
template <int N>
void small_direct_solve(int q, int m, cplx s, const la::Matrix& gp,
                        const la::Matrix& cp, const ZMatrix& bz,
                        RomEvalWorkspace& ws) {
    ws.kpad.resize(static_cast<std::size_t>(N) * N);
    ws.kperm.resize(static_cast<std::size_t>(N));
    ws.xpad.resize(static_cast<std::size_t>(N) * static_cast<std::size_t>(m));
    cplx* k = ws.kpad.data();
    for (int j = 0; j < q; ++j) {
        cplx* col = k + static_cast<std::size_t>(j) * N;
        la::simd::pencil_stamp_n(q, s, gp.col_data(j), cp.col_data(j), col);
        for (int i = q; i < N; ++i) col[i] = cplx{};
    }
    for (int j = q; j < N; ++j) {
        cplx* col = k + static_cast<std::size_t>(j) * N;
        for (int i = 0; i < N; ++i) col[i] = cplx{};
        col[j] = 1.0;
    }
    la::small_lu_factor<N>(k, ws.kperm.data());
    cplx* x = ws.xpad.data();
    for (int r = 0; r < m; ++r) {
        const cplx* br = bz.col_data(r);
        cplx* xr = x + static_cast<std::size_t>(r) * N;
        for (int i = 0; i < N; ++i) {
            const int pi = ws.kperm[static_cast<std::size_t>(i)];
            xr[i] = pi < q ? br[pi] : cplx{};
        }
    }
    la::small_lu_substitute<N>(k, x, m);
    if (ws.x.rows() != q || ws.x.cols() != m) ws.x = ZMatrix(q, m);
    for (int r = 0; r < m; ++r)
        std::copy(x + static_cast<std::size_t>(r) * N,
                  x + static_cast<std::size_t>(r) * N + q, ws.x.col_data(r));
}

/// Stamps ms = (I + sH)^T for one frequency from the per-sample band
/// transpose ht: column j of ms holds row j of I + sH, contiguous from the
/// subdiagonal entry. Only the Hessenberg band is written, and
/// hessenberg_solve_t never reads outside it. Shared by transfer() and the
/// sensitivity chain so both stamp bit-identical pencils; the solve
/// eliminates IN PLACE, so callers re-stamp before every solve.
void stamp_hessenberg_pencil(int q, cplx s, const Matrix& ht, ZMatrix& ms) {
    if (ms.rows() != q || ms.cols() != q) ms = ZMatrix(q, q);
    for (int j = 0; j < q; ++j) {
        const int imin = j > 0 ? j - 1 : 0;
        cplx* mj = ms.col_data(j);
        la::simd::zscale_real_n(q - imin, s, ht.col_data(j) + imin, mj + imin);
        mj[j] += 1.0;
    }
}

/// max_ij |a(i,j) - a(j,i)| <= tol * max_ij |a(i,j)| for a q x q block.
bool symmetric_within(const double* a, int q, double tol) {
    double amax = 0.0, asym = 0.0;
    for (int j = 0; j < q; ++j) {
        for (int i = 0; i < q; ++i) {
            const double aij = a[i + static_cast<std::size_t>(j) * q];
            amax = std::max(amax, std::abs(aij));
            if (i < j)
                asym = std::max(asym, std::abs(aij - a[j + static_cast<std::size_t>(i) * q]));
        }
    }
    return asym <= tol * amax;
}

/// Every packed term symmetric within `tol` of its largest entry.
bool terms_symmetric(const std::vector<double>& packed, int q, double tol) {
    const std::size_t block = static_cast<std::size_t>(q) * static_cast<std::size_t>(q);
    for (std::size_t off = 0; off < packed.size(); off += block)
        if (!symmetric_within(packed.data() + off, q, tol)) return false;
    return true;
}

/// True when every eigenvalue of the symmetric tridiagonal (d, e) exceeds
/// -shift: all pivots of the LDL^T of Tri + shift I are positive (Sylvester's
/// law of inertia). O(q).
bool tridiagonal_above(const std::vector<double>& d, const std::vector<double>& e,
                       double shift) {
    double piv = d[0] + shift;
    if (!(piv > 0.0)) return false;
    for (std::size_t i = 1; i < d.size(); ++i) {
        piv = d[i] + shift - e[i - 1] * (e[i - 1] / piv);
        if (!(piv > 0.0)) return false;
    }
    return true;
}

/// 1 / z by one real division. Every pivot D_i of I + s Tri on the RC lane
/// has Re D_i >= 1 (the real part of the matrix is the identity plus a
/// semidefinite term), so |z|^2 neither underflows nor overflows.
la::cplx recip(la::cplx z) {
    const double inv = 1.0 / la::simd::fmadd_s(z.real(), z.real(), z.imag() * z.imag());
    return {z.real() * inv, -z.imag() * inv};
}

/// One frequency on the RC lane: H = Y^T (I + s Tri)^-1 Y (m x m). I + s Tri
/// is complex symmetric tridiagonal (diagonal 1 + s d_i, off-diagonal
/// s e_i); it is factored as L D L^T without pivoting, which is safe here:
/// with Re s >= 0 and Tri semidefinite, its real part is positive definite
/// and its imaginary part semidefinite, the class whose growth factor
/// Higham (Math. Comp. 1998) bounds by a small constant. The factorization
/// and the m forward substitutions share one pass; the back substitutions
/// accumulate H. O(q m) per point.
ZMatrix rc_point(cplx s, int q, int m, RomEvalWorkspace& ws) {
    using la::simd::fmadd_s;
    using la::simd::fnmadd_s;
    using la::simd::mul_s;
    const std::size_t uq = static_cast<std::size_t>(q);
    ws.tpiv.resize(uq);
    ws.tmul.resize(uq);
    ws.tx.resize(uq * static_cast<std::size_t>(m));
    const double* d = ws.td.data();
    const double* e = ws.te.data();
    cplx* piv = ws.tpiv.data();
    cplx* mul = ws.tmul.data();
    cplx* x = ws.tx.data();
    const double sr = s.real(), si = s.imag();

    // D_0 = 1 + s d_0; l_i = s e_{i-1} / D_{i-1}; D_i = 1 + s d_i - l_i s e_{i-1};
    // forward: z_i = y_i - l_i z_{i-1}.
    cplx dinv = recip({fmadd_s(sr, d[0], 1.0), si * d[0]});
    piv[0] = dinv;
    for (int b = 0; b < m; ++b) x[static_cast<std::size_t>(b) * uq] = ws.ty(0, b);
    for (int i = 1; i < q; ++i) {
        const cplx off(sr * e[i - 1], si * e[i - 1]);
        const cplx li = mul_s(off, dinv);
        dinv = recip(fnmadd_s(li, off, {fmadd_s(sr, d[i], 1.0), si * d[i]}));
        piv[i] = dinv;
        mul[i] = li;
        for (int b = 0; b < m; ++b) {
            cplx* xb = x + static_cast<std::size_t>(b) * uq;
            xb[i] = fnmadd_s(li, xb[i - 1], cplx(ws.ty(i, b), 0.0));
        }
    }
    // Back: x_i = z_i / D_i - l_{i+1} x_{i+1}; H(a, b) = sum_i Y(i, a) x_i.
    ZMatrix h(m, m);
    for (int b = 0; b < m; ++b) {
        cplx* xb = x + static_cast<std::size_t>(b) * uq;
        cplx* hb = h.col_data(b);
        cplx xi = mul_s(xb[q - 1], piv[q - 1]);
        for (int i = q - 1;; --i) {
            for (int a = 0; a < m; ++a) {
                const double ya = ws.ty(i, a);
                hb[a] = {fmadd_s(ya, xi.real(), hb[a].real()),
                         fmadd_s(ya, xi.imag(), hb[a].imag())};
            }
            if (i == 0) break;
            xi = fnmadd_s(mul[i], xi, mul_s(xb[i - 1], piv[i - 1]));
        }
    }
    return h;
}

}  // namespace

RomEvalEngine::RomEvalEngine(const ReducedModel& model)
    : q_(model.size()), np_(model.num_params()), m_(model.num_ports()) {
    check(q_ >= 1, "RomEvalEngine: empty reduced model");
    check(model.c0.rows() == q_ && model.c0.cols() == q_,
          "RomEvalEngine: C~0 shape mismatch");
    check(model.b.rows() == q_ && model.l.rows() == q_,
          "RomEvalEngine: port matrix row mismatch");
    check(model.l.cols() == m_, "RomEvalEngine: L~ column mismatch");
    check(model.dg.size() == model.dc.size(),
          "RomEvalEngine: sensitivity family size mismatch");
    g_terms_ = pack_terms(model.g0, model.dg, q_);
    c_terms_ = pack_terms(model.c0, model.dc, q_);
    b_ = model.b;
    l_ = model.l;
    bz_ = la::to_complex(model.b);
    lzt_ = la::transpose(la::to_complex(model.l));
    // B~ == L~ is exact for MNA models (project computes both from one port
    // matrix with one kernel), so it is tested bitwise.
    rc_ = model.b.cols() == model.l.cols() && model.b.raw() == model.l.raw() &&
          terms_symmetric(g_terms_, q_, kRcSymmetryTol) &&
          terms_symmetric(c_terms_, q_, kRcSymmetryTol);
}

void RomEvalEngine::stamp_parameters(const std::vector<double>& p,
                                     RomEvalWorkspace& ws) const {
    check(static_cast<int>(p.size()) == np_,
          "RomEvalEngine: parameter vector length mismatch");
    stamp_affine(g_terms_, p, q_, ws.gp);
    stamp_affine(c_terms_, p, q_, ws.cp);
    ws.stamped = true;
    ws.lane_ = RomLane::unprepared;
    ws.general_ = RomLane::unprepared;
    ws.sens_ready = false;
}

void RomEvalEngine::prepare_lane(RomEvalWorkspace& ws) const {
    if (rc_) {
        if (prepare_rc(ws)) {
            ws.lane_ = RomLane::rc;
            return;
        }
        static obs::Counter& fallbacks =
            obs::Registry::global().counter("rom_eval.rc_fallbacks");
        fallbacks.add();
    }
    if (ws.general_ == RomLane::unprepared) prepare_general(ws);
    ws.lane_ = ws.general_;
}

bool RomEvalEngine::prepare_rc(RomEvalWorkspace& ws) const {
    // G~ = L L^T; a failed pivot means G~(p) is not positive definite, so the
    // ROM is not passive at this p.
    ws.lg = ws.gp;
    if (!la::cholesky_lower(ws.lg)) return false;
    // T = L^-1 C~ L^-T, then Tri = Q^T T Q with Y = Q^T L^-1 B~ carried along.
    ws.tc = ws.cp;
    la::reduce_to_standard(ws.tc, ws.lg);
    ws.ty = b_;
    la::forward_substitute(ws.lg, ws.ty);
    la::tridiagonalize(ws.tc, ws.td, ws.te, &ws.ty, ws.hv);
    double norm = 0.0;  // ||Tri||_1
    for (std::size_t i = 0; i < ws.td.size(); ++i)
        norm = std::max(norm, std::abs(ws.td[i]) + (i > 0 ? std::abs(ws.te[i - 1]) : 0.0) +
                                  (i < ws.te.size() ? std::abs(ws.te[i]) : 0.0));
    return norm == 0.0 || tridiagonal_above(ws.td, ws.te, kRcSemidefiniteTol * norm);
}

void RomEvalEngine::prepare_general(RomEvalWorkspace& ws) const {
    // Small-q fast lane: below kDirectPathOrder the direct dense-pencil
    // kernel beats the Hessenberg split per frequency AND skips the O(q^3)
    // per-sample preparation — the one-shot ReducedModel::transfer() path
    // stops paying for machinery it never amortizes. The threshold depends
    // only on q, so grids and loops take the same branch.
    if (q_ < kDirectPathOrder) {
        ws.general_ = RomLane::direct;
        return;
    }
    // Per-sample stage, all real arithmetic: factor G~(p), form
    // A = G~^-1 C~, reduce to Hessenberg H = Q^T A Q, and push the ports
    // through the transform: R = Q^T G~^-1 B~ and L~^T Q.
    //
    // The Hessenberg split needs G~(p) itself to be invertible — a stronger
    // requirement than the direct path, which only needs the pencil
    // G~ + sC~ at the evaluated s. When G~(p) is singular (e.g. an affine
    // term cancels a conductance at this corner), fall back to the direct
    // per-frequency pencil kernel for this SAMPLE. The choice depends
    // only on the stamped values, so looped and batched evaluation take the
    // same branch and stay bit-identical.
    try {
        ws.glu.factor(ws.gp);
    } catch (const Error&) {
        ws.general_ = RomLane::direct;
        return;
    }
    if (ws.hh.rows() != q_ || ws.hh.cols() != q_) ws.hh = Matrix(q_, q_);
    ws.hh.raw() = ws.cp.raw();
    ws.glu.solve_inplace(ws.hh);  // A = G^-1 C
    la::hessenberg_with_q(ws.hh, ws.qh, ws.hv);

    // Transpose the Hessenberg band once per sample so the per-frequency
    // stamp and solve run down contiguous columns of (I + sH)^T (see
    // la::hessenberg_solve_t). Rows below the first subdiagonal of H are
    // never read, so only the band is copied.
    if (ws.ht.rows() != q_ || ws.ht.cols() != q_) ws.ht = Matrix(q_, q_);
    for (int j = 0; j < q_; ++j) {
        double* tj = ws.ht.col_data(j);
        for (int i = j > 0 ? j - 1 : 0; i < q_; ++i) tj[i] = ws.hh(j, i);
    }

    Matrix r0 = b_;
    ws.glu.solve_inplace(r0);                    // G^-1 B
    ws.rh = la::matmul_transA(ws.qh, r0);        // Q^T G^-1 B
    ws.lqz = la::to_complex(la::matmul_transA(l_, ws.qh));  // L^T Q
    ws.general_ = RomLane::hessenberg;
}

ZMatrix RomEvalEngine::direct_transfer(cplx s, RomEvalWorkspace& ws) const {
    // The direct kernel (small-q fast lane, singular-G~ fallback and the
    // RC lane's points with Re s < 0): factor the complex pencil at this
    // frequency. Up to kSmallLuMaxSize the identity-padded fixed-size kernels
    // run the same arithmetic fully unrolled; the generic workspace LU serves
    // larger q. Both stamp through simd::pencil_stamp_n and eliminate with
    // the same per-element semantics, so the lanes agree bitwise.
    const bool fixed = la::small_lu_dispatch(q_, [&](auto n) {
        small_direct_solve<decltype(n)::value>(q_, m_, s, ws.gp, ws.cp, bz_, ws);
    });
    if (!fixed) {
        ZMatrix& k = ws.klu.stamp(q_);
        la::simd::pencil_stamp_n(q_ * q_, s, ws.gp.raw().data(), ws.cp.raw().data(),
                                 k.raw().data());
        ws.klu.factor_stamped();
        if (ws.x.rows() != q_ || ws.x.cols() != m_) ws.x = ZMatrix(q_, m_);
        ws.x.raw() = bz_.raw();
        ws.klu.solve_inplace(ws.x);
    }
    return la::matmul(lzt_, ws.x);
}

ZMatrix RomEvalEngine::transfer(cplx s, RomEvalWorkspace& ws) const {
    check(ws.stamped, "RomEvalEngine::transfer: stamp_parameters first");
    if (ws.lane_ == RomLane::unprepared) prepare_lane(ws);

    if (ws.lane_ == RomLane::rc)
        return s.real() >= 0.0 ? rc_point(s, q_, m_, ws) : direct_transfer(s, ws);
    if (ws.lane_ == RomLane::direct) return direct_transfer(s, ws);

    // Per-frequency stage: K^-1 B~ = Q (I + sH)^-1 Q^T G~^-1 B~, one complex
    // Hessenberg solve in transposed storage.
    stamp_hessenberg_pencil(q_, s, ws.ht, ws.ms);
    if (ws.xs.rows() != q_ || ws.xs.cols() != m_) ws.xs = ZMatrix(q_, m_);
    for (std::size_t e = 0; e < ws.xs.raw().size(); ++e)
        ws.xs.raw()[e] = ws.rh.raw()[e];
    la::hessenberg_solve_t(ws.ms, ws.xs);
    return la::matmul(ws.lqz, ws.xs);  // L~^T Q (I+sH)^-1 Q^T G^-1 B~
}

ZMatrix RomEvalEngine::transfer_sensitivity(cplx s, int param,
                                            RomEvalWorkspace& ws) const {
    check(ws.stamped, "RomEvalEngine::transfer_sensitivity: stamp_parameters first");
    check(param >= 0 && param < np_,
          "RomEvalEngine::transfer_sensitivity: parameter index out of range");
    if (ws.general_ == RomLane::unprepared) prepare_general(ws);

    // dK = G~_i + s C~_i from the packed terms (both lanes stamp it the
    // same way).
    if (ws.dk.rows() != q_ || ws.dk.cols() != q_) ws.dk = ZMatrix(q_, q_);
    const std::size_t block = static_cast<std::size_t>(q_) * static_cast<std::size_t>(q_);
    const double* dg = g_terms_.data() + block * static_cast<std::size_t>(param + 1);
    const double* dc = c_terms_.data() + block * static_cast<std::size_t>(param + 1);
    la::simd::pencil_stamp_n(static_cast<int>(block), s, dg, dc, ws.dk.raw().data());

    if (ws.general_ == RomLane::direct) {
        // Direct lane (small q, or singular G~(p)): factor K = G~ + sC~ once
        // into the workspace and apply it twice.
        ZMatrix& k = ws.klu.stamp(q_);
        la::simd::pencil_stamp_n(q_ * q_, s, ws.gp.raw().data(), ws.cp.raw().data(),
                                 k.raw().data());
        ws.klu.factor_stamped();
        if (ws.x.rows() != q_ || ws.x.cols() != m_) ws.x = ZMatrix(q_, m_);
        ws.x.raw() = bz_.raw();
        ws.klu.solve_inplace(ws.x);            // K^-1 B~
        la::matmul_into(ws.dk, ws.x, ws.dkx);  // dK K^-1 B~
        ws.klu.solve_inplace(ws.dkx);          // K^-1 dK K^-1 B~
        ZMatrix out = la::matmul(lzt_, ws.dkx);
        for (cplx& v : out.raw()) v = -v;
        return out;
    }

    // Hessenberg lane: K^-1 = Q (I + sH)^-1 Q^T G~^-1, so both K^-1
    // applications are O(q^2) Hessenberg solves on the per-sample form and
    // the trailing L~^T folds into the per-sample L~^T Q — no complex pencil
    // factorization at any frequency. The solve eliminates ms in place, so
    // the pencil is re-stamped before each solve (O(q^2) band writes).
    if (!ws.sens_ready) {
        ws.qz = la::to_complex(ws.qh);
        ws.qtz = la::transpose(ws.qz);
        ws.sens_ready = true;
    }

    // X = K^-1 B~ = Q (I + sH)^-1 (Q^T G~^-1 B~), as in transfer().
    stamp_hessenberg_pencil(q_, s, ws.ht, ws.ms);
    if (ws.xs.rows() != q_ || ws.xs.cols() != m_) ws.xs = ZMatrix(q_, m_);
    for (std::size_t e = 0; e < ws.xs.raw().size(); ++e)
        ws.xs.raw()[e] = ws.rh.raw()[e];
    la::hessenberg_solve_t(ws.ms, ws.xs);
    la::matmul_into(ws.qz, ws.xs, ws.x);

    la::matmul_into(ws.dk, ws.x, ws.dkx);  // dK K^-1 B~

    // G~^-1 (dK K^-1 B~) through the per-sample REAL factorization: split
    // the complex right-hand side into Re/Im blocks, substitute each.
    if (ws.yr.rows() != q_ || ws.yr.cols() != m_) ws.yr = Matrix(q_, m_);
    if (ws.yi.rows() != q_ || ws.yi.cols() != m_) ws.yi = Matrix(q_, m_);
    for (std::size_t e = 0; e < ws.dkx.raw().size(); ++e) {
        ws.yr.raw()[e] = ws.dkx.raw()[e].real();
        ws.yi.raw()[e] = ws.dkx.raw()[e].imag();
    }
    ws.glu.solve_inplace(ws.yr);
    ws.glu.solve_inplace(ws.yi);
    for (std::size_t e = 0; e < ws.dkx.raw().size(); ++e)
        ws.dkx.raw()[e] = cplx(ws.yr.raw()[e], ws.yi.raw()[e]);

    la::matmul_into(ws.qtz, ws.dkx, ws.xs);      // Q^T G~^-1 dK K^-1 B~
    stamp_hessenberg_pencil(q_, s, ws.ht, ws.ms);
    la::hessenberg_solve_t(ws.ms, ws.xs);        // (I + sH)^-1 ...
    ZMatrix out = la::matmul(ws.lqz, ws.xs);     // L~^T Q ...
    for (cplx& v : out.raw()) v = -v;
    return out;
}

std::vector<cplx> RomEvalEngine::poles(RomEvalWorkspace& ws) const {
    check(ws.stamped, "RomEvalEngine::poles: stamp_parameters first");
    if (rc_ && ws.lane_ == RomLane::unprepared) prepare_lane(ws);
    std::vector<cplx> poles;
    if (ws.lane_ == RomLane::rc) {
        // Eigenvalues lambda of Tri (the pencil's mu = eigenvalues of
        // G~^-1 C~); finite poles are s = -1/lambda, real.
        std::vector<double> lambdas = ws.td, sub = ws.te;
        la::tridiagonal_ql(lambdas, sub, nullptr);
        double fro2 = 0.0;  // ||Tri||_F^2
        for (double v : ws.td) fro2 += v * v;
        for (double v : ws.te) fro2 += 2.0 * v * v;
        const double cutoff = 1e-14 * (1.0 + std::sqrt(fro2));
        for (double lambda : lambdas) {
            if (std::abs(lambda) <= cutoff) continue;  // pole at infinity
            poles.emplace_back(-1.0 / lambda, 0.0);
        }
    } else {
        // mu-eigenvalues of A = -G^-1 C; finite poles are s = -1/mu, mu != 0.
        ws.glu.factor(ws.gp);
        if (ws.ac.rows() != q_ || ws.ac.cols() != q_) ws.ac = Matrix(q_, q_);
        ws.ac.raw() = ws.cp.raw();
        ws.glu.solve_inplace(ws.ac);  // G^-1 C (sign folded below)
        const std::vector<cplx> mus = la::eig_values(ws.ac);
        const double cutoff = 1e-14 * (1.0 + la::norm_fro(ws.ac));
        for (const cplx& mu : mus) {
            if (std::abs(mu) <= cutoff) continue;  // pole at infinity
            poles.push_back(-1.0 / mu);            // s = -1/mu with mu from +G^-1 C
        }
    }
    std::sort(poles.begin(), poles.end(),
              [](cplx x, cplx y) { return std::abs(x) < std::abs(y); });
    return poles;
}

std::vector<std::vector<ZMatrix>> RomEvalEngine::transfer_grid(
    const std::vector<std::vector<double>>& samples, const std::vector<cplx>& s_points,
    int threads) const {
    const int ns = static_cast<int>(samples.size());
    const int nf = static_cast<int>(s_points.size());
    std::vector<std::vector<ZMatrix>> out(samples.size());
    for (auto& row : out) row.resize(s_points.size());
    if (ns == 0 || nf == 0) return out;

    // Grid-level stage timers. Per-chunk accounting only: each chunk times
    // its stamps (2 clock reads per SAMPLE, the expensive O(q^3) stage) and
    // charges the remainder of its wall time to the O(q^2) per-frequency
    // solves — no clock read on the per-point hot path.
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& grid_count = reg.counter("rom_eval.grids");
    static obs::Counter& sample_count = reg.counter("rom_eval.samples");
    static obs::Counter& point_count = reg.counter("rom_eval.points");
    static obs::Counter& stamp_ns = reg.counter("rom_eval.stamp_ns");
    static obs::Counter& solve_ns = reg.counter("rom_eval.solve_ns");
    static obs::Histogram& grid_hist = reg.histogram("rom_eval.grid_ns");
    const bool timed = obs::enabled();
    const std::int64_t grid_begin = timed ? util::Timer::now_ns() : 0;
    struct ChunkObs {
        std::int64_t begin_ns = 0;
        std::int64_t stamp_ns = 0;
        long long samples = 0;
        long long points = 0;
    };
    auto chunk_begin_obs = [&](ChunkObs& c) {
        if (timed) c.begin_ns = util::Timer::now_ns();
    };
    auto chunk_end_obs = [&](ChunkObs& c) {
        sample_count.add(c.samples);
        point_count.add(c.points);
        if (!timed) return;
        const std::int64_t total = util::Timer::now_ns() - c.begin_ns;
        stamp_ns.add(c.stamp_ns);
        solve_ns.add(total - c.stamp_ns);
    };

    // When samples dominate (Monte-Carlo style grids: many corners, few
    // frequencies), chunk BY SAMPLE so the O(q^3) per-sample Hessenberg
    // preparation parallelizes and is paid exactly once per sample — the
    // flattened split would duplicate it wherever a sample straddles a chunk
    // boundary and, at nf < threads, serialize whole samples behind
    // frequency sub-chunks. Otherwise flatten (sample, frequency) into one
    // index space so chunks stay balanced when either dimension is small.
    // The branch depends only on (ns, nf), per-point values are
    // thread-count-independent either way, and both splits run the same
    // transfer() kernel — results stay bit-identical at any thread count and
    // under either chunking.
    auto finish_grid = [&] {
        grid_count.add();
        if (timed) grid_hist.record(util::Timer::now_ns() - grid_begin);
    };

    if (ns >= nf) {
        util::ThreadPool::global().parallel_chunks(0, ns, [&](int, int s0, int s1) {
            RomEvalWorkspace ws;
            ChunkObs c;
            chunk_begin_obs(c);
            for (int i = s0; i < s1; ++i) {
                const std::int64_t t0 = timed ? util::Timer::now_ns() : 0;
                stamp_parameters(samples[static_cast<std::size_t>(i)], ws);
                if (timed) c.stamp_ns += util::Timer::now_ns() - t0;
                ++c.samples;
                c.points += nf;
                for (int j = 0; j < nf; ++j)
                    out[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
                        transfer(s_points[static_cast<std::size_t>(j)], ws);
            }
            chunk_end_obs(c);
        }, threads);
        finish_grid();
        return out;
    }
    util::ThreadPool::global().parallel_chunks(
        0, ns * nf, [&](int, int chunk_begin, int chunk_end) {
            RomEvalWorkspace ws;
            ChunkObs c;
            chunk_begin_obs(c);
            int current_sample = -1;
            for (int idx = chunk_begin; idx < chunk_end; ++idx) {
                const int i = idx / nf;
                const int j = idx % nf;
                if (i != current_sample) {
                    const std::int64_t t0 = timed ? util::Timer::now_ns() : 0;
                    stamp_parameters(samples[static_cast<std::size_t>(i)], ws);
                    if (timed) c.stamp_ns += util::Timer::now_ns() - t0;
                    ++c.samples;
                    current_sample = i;
                }
                ++c.points;
                out[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
                    transfer(s_points[static_cast<std::size_t>(j)], ws);
            }
            chunk_end_obs(c);
        },
        threads);
    finish_grid();
    return out;
}

}  // namespace varmor::mor
