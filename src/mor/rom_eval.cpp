#include "mor/rom_eval.h"

#include <algorithm>
#include <cmath>

#include "la/eig.h"
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
/// simd::axpy_n per term, which keeps the engine's poles() bit-identical to
/// ReducedModel::poles().
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
}

void RomEvalEngine::stamp_parameters(const std::vector<double>& p,
                                     RomEvalWorkspace& ws) const {
    check(static_cast<int>(p.size()) == np_,
          "RomEvalEngine: parameter vector length mismatch");
    stamp_affine(g_terms_, p, q_, ws.gp);
    stamp_affine(c_terms_, p, q_, ws.cp);
    ws.stamped = true;
    ws.transfer_ready = false;
    ws.sens_ready = false;
}

void RomEvalEngine::prepare_transfer(RomEvalWorkspace& ws) const {
    // Small-q fast lane: below kDirectPathOrder the direct dense-pencil
    // kernel beats the Hessenberg split per frequency AND skips the O(q^3)
    // per-sample preparation — the one-shot ReducedModel::transfer() path
    // stops paying for machinery it never amortizes. The threshold depends
    // only on q, so grids and loops take the same branch.
    if (q_ < kDirectPathOrder) {
        ws.direct_path = true;
        ws.transfer_ready = true;
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
        ws.direct_path = false;
    } catch (const Error&) {
        ws.direct_path = true;
        ws.transfer_ready = true;
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
    ws.transfer_ready = true;
}

ZMatrix RomEvalEngine::transfer(cplx s, RomEvalWorkspace& ws) const {
    check(ws.stamped, "RomEvalEngine::transfer: stamp_parameters first");
    if (!ws.transfer_ready) prepare_transfer(ws);

    if (ws.direct_path) {
        // The direct kernel (small-q fast lane and singular-G~ fallback):
        // factor the complex pencil at this frequency. Below
        // kDirectPathOrder the identity-padded fixed-size kernels run the
        // same arithmetic fully unrolled; the generic workspace LU serves
        // the singular-G~ fallback at q >= kDirectPathOrder. Both stamp
        // through simd::pencil_stamp_n and eliminate with the same
        // per-element semantics, so the lanes agree bitwise.
        const bool fixed = la::small_lu_dispatch(q_, [&](auto n) {
            small_direct_solve<decltype(n)::value>(q_, m_, s, ws.gp, ws.cp, bz_, ws);
        });
        if (!fixed) {
            ZMatrix& k = ws.klu.stamp(q_);
            la::simd::pencil_stamp_n(q_ * q_, s, ws.gp.raw().data(),
                                     ws.cp.raw().data(), k.raw().data());
            ws.klu.factor_stamped();
            if (ws.x.rows() != q_ || ws.x.cols() != m_) ws.x = ZMatrix(q_, m_);
            ws.x.raw() = bz_.raw();
            ws.klu.solve_inplace(ws.x);
        }
        return la::matmul(lzt_, ws.x);
    }

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
    if (!ws.transfer_ready) prepare_transfer(ws);

    // dK = G~_i + s C~_i from the packed terms (both lanes stamp it the
    // same way).
    if (ws.dk.rows() != q_ || ws.dk.cols() != q_) ws.dk = ZMatrix(q_, q_);
    const std::size_t block = static_cast<std::size_t>(q_) * static_cast<std::size_t>(q_);
    const double* dg = g_terms_.data() + block * static_cast<std::size_t>(param + 1);
    const double* dc = c_terms_.data() + block * static_cast<std::size_t>(param + 1);
    la::simd::pencil_stamp_n(static_cast<int>(block), s, dg, dc, ws.dk.raw().data());

    if (ws.direct_path) {
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
    // mu-eigenvalues of A = -G^-1 C; finite poles are s = -1/mu, mu != 0 —
    // the same computation (and cutoff) as ReducedModel::poles().
    ws.glu.factor(ws.gp);
    if (ws.ac.rows() != q_ || ws.ac.cols() != q_) ws.ac = Matrix(q_, q_);
    ws.ac.raw() = ws.cp.raw();
    ws.glu.solve_inplace(ws.ac);  // G^-1 C (sign folded below)
    std::vector<cplx> mus = la::eig_values(ws.ac);
    std::vector<cplx> poles;
    const double cutoff = 1e-14 * (1.0 + la::norm_fro(ws.ac));
    for (const cplx& mu : mus) {
        if (std::abs(mu) <= cutoff) continue;  // pole at infinity
        poles.push_back(-1.0 / mu);            // s = -1/mu with mu from +G^-1 C
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
