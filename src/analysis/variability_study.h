#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analysis/freq_sweep.h"
#include "analysis/monte_carlo.h"
#include "analysis/transient_batch.h"
#include "circuit/parametric_system.h"
#include "mor/lowrank_pmor.h"
#include "mor/reduced_model.h"
#include "mor/rom_eval.h"
#include "solve/parametric_context.h"

namespace varmor::analysis {

/// Session facade over the variational analysis stack: construct ONCE from a
/// parametric system, then run any number of studies — frequency-response
/// sweeps, transient delay-distribution studies, Monte-Carlo pole-accuracy
/// studies — that SHARE the batched-pencil solve context
/// (solve::ParametricSolveContext) and, where applicable, a cached
/// parametric reduced-order model with its packed evaluation engine.
///
/// Sharing is the point: the context's symbolic LU analyses are computed on
/// first use and reused by every later study (a sweep followed by a
/// transient study pays ONE symbolic analysis total — see
/// ParametricSolveContext::symbolic_analyses()), and the ROM is reduced once
/// and evaluated by every reduced-side study. Each study's results are
/// bit-identical to running the corresponding free function on a fresh
/// context.
///
/// Thread-safety: const studies may run concurrently (the context is
/// internally synchronized); rom()/set_rom() are not synchronized against
/// concurrent studies.
class VariabilityStudy {
public:
    /// Validates and captures the system; no factorization work happens
    /// until the first study.
    explicit VariabilityStudy(const circuit::ParametricSystem& sys);

    const circuit::ParametricSystem& system() const { return ctx_->system(); }
    const solve::ParametricSolveContext& context() const { return *ctx_; }

    /// Session-level trapezoidal-pencil cache (one factored pencil per
    /// distinct dt, shared by every transient study on this facade and by
    /// external runners such as the serving layer's per-session batchers).
    solve::TrapezoidBatchCache& trapezoid_cache() const { return *trap_cache_; }

    // -----------------------------------------------------------------
    // Full-system studies (shared solve context).
    // -----------------------------------------------------------------

    /// Frequency response H(j 2 pi f) of the full system at parameter point
    /// p — analysis::sweep_full on the shared context.
    std::vector<la::ZMatrix> sweep(const std::vector<double>& p,
                                   const std::vector<double>& freqs, int threads = 0) const;

    /// Corner-batch transient delay study (waveforms, 50%-crossing delays,
    /// histogram/mean/sigma) — analysis::transient_study on the shared
    /// context. Repeated studies whose grids share step sizes reuse the
    /// session's trapezoid_cache(): the nominal pencils are stamped and
    /// factored once per distinct dt across ALL studies, bit-identical to
    /// fresh runs.
    TransientStudy transient(const std::vector<std::vector<double>>& corners,
                             const TransientStudyOptions& opts = {}) const;

    // -----------------------------------------------------------------
    // Cached parametric ROM (reduced once, evaluated by every study).
    // -----------------------------------------------------------------

    /// The cached reduced model, building it with the paper's low-rank
    /// single-point algorithm on the first call (`opts` is ignored once a
    /// model exists). Also primes the packed evaluation engine.
    const mor::ReducedModel& rom(const mor::LowRankPmorOptions& opts = {});

    /// Installs an externally built reduced model (e.g. a multi-point or
    /// PRIMA baseline) as the cached ROM.
    void set_rom(mor::ReducedModel model);

    bool has_rom() const { return rom_.has_value(); }

    /// The cached model itself (const access for sessions that installed it
    /// via set_rom). Throws if no ROM is cached yet.
    const mor::ReducedModel& cached_rom() const;

    /// The cached ROM's batched evaluation engine. Throws if no ROM is
    /// cached yet.
    const mor::RomEvalEngine& rom_engine() const;

    // -----------------------------------------------------------------
    // Reduced-side studies (cached ROM + engine).
    // -----------------------------------------------------------------

    /// Frequency response of the cached ROM at parameter point p, evaluated
    /// on the cached engine (bit-identical to analysis::sweep_reduced).
    std::vector<la::ZMatrix> sweep_rom(const std::vector<double>& p,
                                       const std::vector<double>& freqs,
                                       int threads = 0) const;

    /// Monte-Carlo pole-accuracy study of the cached ROM against the full
    /// system — analysis::pole_error_study on the shared context and cached
    /// engine.
    PoleErrorStudy pole_errors(const std::vector<std::vector<double>>& samples,
                               const PoleOptions& opts = {}, int threads = 0) const;

private:
    std::unique_ptr<solve::ParametricSolveContext> ctx_;
    std::unique_ptr<solve::TrapezoidBatchCache> trap_cache_;  ///< internally synchronized
    std::optional<mor::ReducedModel> rom_;
    std::optional<mor::RomEvalEngine> rom_engine_;
};

}  // namespace varmor::analysis
