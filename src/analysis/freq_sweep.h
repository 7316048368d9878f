#pragma once

#include <vector>

#include "circuit/parametric_system.h"
#include "la/dense.h"
#include "mor/reduced_model.h"
#include "solve/parametric_context.h"

namespace varmor::analysis {

/// Logarithmically spaced frequencies [Hz] from lo to hi inclusive.
std::vector<double> log_frequencies(double lo, double hi, int count);

/// Linearly spaced frequencies [Hz] from lo to hi inclusive.
std::vector<double> linear_frequencies(double lo, double hi, int count);

/// Frequency response of the FULL parametric system at parameter point p:
/// H(j 2 pi f) = L^T (G(p) + j 2 pi f C(p))^-1 B for every f.
///
/// Batched solve engine (solve::ParametricSolveContext): the pencil G + sC
/// carries the context's p-independent union(G, C) sparsity pattern, so ONE
/// symbolic LU analysis serves every sweep on the context; the reference is
/// factored at the first frequency and every other point performs a
/// numeric-only refactorization — and the points fan out across the thread
/// pool with per-thread workspaces (solve::PencilBatch). `threads` is the
/// section width (util::ThreadPool). Results are bit-identical at any width:
/// every point is refactorized from the same reference factorization.
std::vector<la::ZMatrix> sweep_full(const solve::ParametricSolveContext& ctx,
                                    const std::vector<double>& p,
                                    const std::vector<double>& freqs, int threads = 0);

/// One-shot convenience: builds a private solve context for this call.
std::vector<la::ZMatrix> sweep_full(const circuit::ParametricSystem& sys,
                                    const std::vector<double>& p,
                                    const std::vector<double>& freqs, int threads = 0);

/// Frequency response of a reduced parametric model, evaluated on the
/// batched ROM engine (mor::RomEvalEngine): G~(p)/C~(p) are accumulated once
/// for the whole sweep, each frequency stamps the pencil into a reusable
/// dense LU workspace, and points fan out across the thread pool (`threads`
/// is the section width, util::ThreadPool). Bit-identical to a serial loop
/// of model.transfer() calls at any width.
std::vector<la::ZMatrix> sweep_reduced(const mor::ReducedModel& model,
                                       const std::vector<double>& p,
                                       const std::vector<double>& freqs,
                                       int threads = 0);

/// |H[row, col]| series from a sweep result.
std::vector<double> magnitude_series(const std::vector<la::ZMatrix>& sweep, int row,
                                     int col);

/// |Y[row, col]| series where Y = H^-1 per frequency point. With
/// current-injection ports H is the impedance matrix Z, so its inverse is
/// the short-circuit admittance matrix the paper's Fig. 4 plots (|Y11|).
std::vector<double> admittance_series(const std::vector<la::ZMatrix>& sweep, int row,
                                      int col);

/// Voltage-transfer magnitude |H(obs, in) / H(in, in)| — the unit-magnitude
/// low-pass shape of Fig. 3 (ratio of observed node voltage to driven node
/// voltage under current excitation at the input port).
std::vector<double> voltage_transfer_series(const std::vector<la::ZMatrix>& sweep,
                                            int in_port, int obs_port);

/// Max and RMS relative deviation between two magnitude series (model
/// accuracy metrics printed by the benches).
struct SeriesError {
    double max_rel = 0.0;
    double rms_rel = 0.0;
};
SeriesError series_error(const std::vector<double>& reference,
                         const std::vector<double>& approximation);

}  // namespace varmor::analysis
