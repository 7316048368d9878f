#include "mor/reduced_model.h"

#include "la/ops.h"
#include "la/simd.h"
#include "mor/rom_eval.h"
#include "util/check.h"

namespace varmor::mor {

using la::cplx;
using la::Matrix;
using la::ZMatrix;

namespace {

Matrix affine(const Matrix& base, const std::vector<Matrix>& terms,
              const std::vector<double>& p) {
    check(p.size() == terms.size(), "ReducedModel: parameter vector length mismatch");
    // Same accumulation kernel (simd::axpy_n) and zero-parameter skip as the
    // engine's stamp_affine, so g_at/c_at are bitwise the engine's stamps.
    Matrix acc = base;
    for (std::size_t i = 0; i < terms.size(); ++i) {
        if (p[i] == 0.0) continue;
        la::simd::axpy_n(static_cast<int>(acc.raw().size()), p[i],
                         terms[i].raw().data(), acc.raw().data());
    }
    return acc;
}

}  // namespace

Matrix ReducedModel::g_at(const std::vector<double>& p) const { return affine(g0, dg, p); }

Matrix ReducedModel::c_at(const std::vector<double>& p) const { return affine(c0, dc, p); }

ZMatrix ReducedModel::transfer(cplx s, const std::vector<double>& p) const {
    // One-shot case of the batched evaluator: routing through RomEvalEngine
    // keeps a SINGLE transfer code path, so a loop of transfer() calls is
    // bit-identical to an engine grid by construction (the same contract the
    // transient engine gives simulate()). Batch drivers should hold the
    // engine themselves to amortize the packing and per-sample reduction.
    RomEvalEngine engine(*this);
    RomEvalWorkspace ws;
    engine.stamp_parameters(p, ws);
    return engine.transfer(s, ws);
}

ZMatrix ReducedModel::transfer_sensitivity(cplx s, const std::vector<double>& p,
                                           int param) const {
    check(param >= 0 && param < num_params(),
          "ReducedModel::transfer_sensitivity: parameter index out of range");
    // Batch-of-one on the engine (see transfer() above).
    RomEvalEngine engine(*this);
    RomEvalWorkspace ws;
    engine.stamp_parameters(p, ws);
    return engine.transfer_sensitivity(s, param, ws);
}

std::vector<cplx> ReducedModel::poles(const std::vector<double>& p) const {
    // Batch-of-one on the engine (see transfer() above).
    RomEvalEngine engine(*this);
    RomEvalWorkspace ws;
    engine.stamp_parameters(p, ws);
    return engine.poles(ws);
}

ReducedModel project(const circuit::ParametricSystem& sys, const Matrix& v) {
    sys.validate();
    check(v.rows() == sys.size(), "project: basis row count must match system size");
    check(v.cols() >= 1 && v.cols() <= sys.size(), "project: invalid basis width");

    auto congruence = [&](const sparse::Csc& m) {
        // V^T (M V), exploiting sparsity of M. An empty M (a parameter that
        // does not touch this matrix) projects to the zero block: bitwise
        // what the product gives, since with M V = 0 every partial sum of
        // finite entries is +0.
        if (m.nnz() == 0) return Matrix(v.cols(), v.cols());
        return la::matmul_transA(v, m.apply(v));
    };

    ReducedModel r;
    r.g0 = congruence(sys.g0);
    r.c0 = congruence(sys.c0);
    r.dg.reserve(sys.dg.size());
    r.dc.reserve(sys.dc.size());
    for (const auto& m : sys.dg) r.dg.push_back(congruence(m));
    for (const auto& m : sys.dc) r.dc.push_back(congruence(m));
    r.b = la::matmul_transA(v, sys.b);
    r.l = la::matmul_transA(v, sys.l);
    return r;
}

}  // namespace varmor::mor
