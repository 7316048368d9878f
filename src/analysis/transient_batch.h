#pragma once

#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/monte_carlo.h"
#include "analysis/transient.h"
#include "circuit/parametric_system.h"
#include "la/dense.h"
#include "solve/parametric_context.h"

namespace varmor::analysis {

/// Batched time-domain engine over Monte-Carlo / corner batches, built on
/// the shared batched-pencil scaffold (solve::ParametricSolveContext).
///
/// The trapezoidal rule solves (C(p)/h + G(p)/2) x1 = (C(p)/h - G(p)/2) x0 +
/// B (u0+u1)/2 at every step, so each corner needs ONE factorization of the
/// left-hand pencil M(p) = C(p)/h + G(p)/2 per distinct step size h. The
/// runner holds one solve::TrapezoidBatch per distinct dt of the grid
/// (exactly one for a flat grid): union sparsity patterns, the context's
/// shared symbolic LU analysis, a nominal reference factorization, and
/// per-corner numeric-only refactorize() on per-thread scratch. With a
/// variable-step schedule, a corner refactorizes once per DISTINCT dt — not
/// per step, and not per schedule segment (segments repeating a dt share the
/// pencil).
///
/// Determinism: every corner is refactorized from the SAME nominal reference
/// factorization (falling back to a fresh, corner-local factorization on
/// RefactorError), so a parallel batch is bit-identical to a serial batch and
/// to a loop of single-corner simulate() calls, which route through this
/// engine as a batch of one.
class TransientBatchRunner {
public:
    /// Builds a private solve context plus the per-dt pencil batches. Throws
    /// varmor::Error on an invalid system or time grid.
    TransientBatchRunner(const circuit::ParametricSystem& sys,
                         const TransientOptions& opts = {});

    /// Shares an existing solve context (the facade path: its symbolic
    /// analysis is reused instead of recomputed). `ctx` must outlive the
    /// runner.
    TransientBatchRunner(const solve::ParametricSolveContext& ctx,
                         const TransientOptions& opts = {});

    /// Shares a context AND a session-level pencil cache: every distinct dt
    /// of the grid is fetched from (or built into) `cache`, so repeated
    /// delay studies whose schedules share step sizes skip even the nominal
    /// reference factorization. Cached and freshly built pencils are
    /// bit-identical. `cache` (and its context) must outlive the runner.
    TransientBatchRunner(solve::TrapezoidBatchCache& cache,
                         const TransientOptions& opts = {});

    int size() const { return ctx_->size(); }
    int num_ports() const { return ctx_->num_ports(); }
    int num_params() const { return ctx_->num_params(); }
    const TransientOptions& options() const { return opts_; }

    /// Number of distinct trapezoidal pencils (== distinct dt values in the
    /// grid); the factorization count per corner.
    int num_pencils() const { return static_cast<int>(pencils_.size()); }

    /// Per-worker scratch: one assembly/factorization slot per distinct dt.
    /// One per thread in run_batch(); reusable across corners with zero
    /// steady-state allocation.
    struct Scratch {
        std::vector<solve::TrapezoidBatch::Scratch> pencil;
    };
    Scratch make_scratch() const;

    /// One corner on caller-owned scratch (the batch hot path).
    TransientResult run(const std::vector<double>& p, const InputFn& input,
                        Scratch& scratch) const;

    /// One corner, allocating its own scratch.
    TransientResult run(const std::vector<double>& p, const InputFn& input) const;

    /// Whole batch fanned across the thread pool with deterministic
    /// contiguous chunking; `threads` is the section width
    /// (util::ThreadPool). The forcing series B (u0+u1)/2 is
    /// corner-independent, so it is evaluated ONCE for the whole batch and
    /// shared read-only across workers. Results are bit-identical at any
    /// width. A corner failure rethrows the FIRST failing corner (in corner
    /// order) for the whole call; callers that need per-corner isolation use
    /// run_batch_captured.
    std::vector<TransientResult> run_batch(const std::vector<std::vector<double>>& corners,
                                           const InputFn& input, int threads = 0) const;

    /// Per-corner outcome of a captured batch: exactly one of `result`
    /// (success) and `error` (the corner's own failure) is set.
    struct CornerOutcome {
        std::optional<TransientResult> result;
        std::exception_ptr error;
    };

    /// The batch preamble, exposed: evaluates the corner-independent forcing
    /// series B (u0+u1)/2 over the runner's grid, once, for sharing
    /// read-only across any number of run_corner_captured calls. This is how
    /// the serving layer schedules delay corners as individual pool tasks
    /// (overlapped with the dense transfer lane) while keeping the
    /// evaluate-the-input-once economics of run_batch.
    std::vector<la::Vector> make_forcing(const InputFn& input) const;

    /// One corner of a captured batch on caller-owned scratch and a shared
    /// forcing series from make_forcing: the corner's own failure is
    /// captured into the outcome, never thrown. Bit-identical to the
    /// corresponding slot of run_batch_captured (same single code path).
    CornerOutcome run_corner_captured(const std::vector<double>& p,
                                      const std::vector<la::Vector>& forcing,
                                      Scratch& scratch) const;

    /// run_batch with per-corner failure isolation: a corner that throws
    /// (singular pencil, parameter-length mismatch, injected fault) captures
    /// its exception into its own slot, and every OTHER corner still runs —
    /// and produces bits identical to a batch without the failing corner.
    /// This is the serving layer's batch primitive: one bad query must not
    /// fail (or re-run) its batchmates.
    std::vector<CornerOutcome> run_batch_captured(
        const std::vector<std::vector<double>>& corners, const InputFn& input,
        int threads = 0) const;

private:
    /// Shared corner core: factorization reuse + trapezoidal loop on a
    /// precomputed forcing series (the single code path under run() and
    /// run_batch()).
    TransientResult run_with_forcing(const std::vector<double>& p,
                                     const std::vector<la::Vector>& forcing,
                                     Scratch& scratch) const;

    void build_pencils(solve::TrapezoidBatchCache* cache);

    TransientOptions opts_;
    std::unique_ptr<solve::ParametricSolveContext> owned_ctx_;
    const solve::ParametricSolveContext* ctx_ = nullptr;
    detail::StepGrid grid_;
    /// One per distinct dt; shared const so a session-level cache can hand
    /// the same factored pencil to many runners.
    std::vector<std::shared_ptr<const solve::TrapezoidBatch>> pencils_;
    std::vector<int> seg_pencil_;                 ///< schedule segment -> pencil index
};

/// The paper's delay-variation experiment as a first-class API: drive one
/// port with a step, run a corner batch on the batched engine, and collect
/// the level-crossing time (interconnect delay) of an observed port per
/// corner, plus distribution statistics.
struct TransientStudyOptions {
    TransientOptions transient;
    int input_port = 0;      ///< port driven with the step
    double amplitude = 1.0;  ///< step height
    int observe_port = -1;   ///< port whose delay is measured; -1 = last port
    /// Absolute crossing threshold. NaN (default) derives it as
    /// level_fraction times the nominal-corner (p = 0) final value of the
    /// observed port — the standard "50% of the settled step" delay metric.
    double level = std::numeric_limits<double>::quiet_NaN();
    double level_fraction = 0.5;
    int histogram_bins = 12;
    int threads = 0;         ///< section width (util::ThreadPool)
};

struct TransientStudy {
    std::vector<TransientResult> waveforms;     ///< per corner
    std::vector<std::optional<double>> delays;  ///< per corner; nullopt = never crossed
    std::vector<double> delay_samples;          ///< delays of the corners that crossed
    double level = 0.0;                         ///< threshold actually used
    Histogram histogram;                        ///< of delay_samples (empty if none crossed)
    double mean_delay = 0.0;
    double sigma_delay = 0.0;
    int num_crossed = 0;
};

TransientStudy transient_study(const circuit::ParametricSystem& sys,
                               const std::vector<std::vector<double>>& corners,
                               const TransientStudyOptions& opts = {});

/// Facade path: runs the study's corner batch on a shared solve context
/// (one symbolic analysis across every study on that context).
TransientStudy transient_study(const solve::ParametricSolveContext& ctx,
                               const std::vector<std::vector<double>>& corners,
                               const TransientStudyOptions& opts = {});

/// Session path: runs the study on an EXISTING batch runner (e.g. one whose
/// pencils come from a solve::TrapezoidBatchCache), so repeated studies skip
/// pencil construction entirely. `opts.transient` is ignored — the runner's
/// own grid is authoritative.
TransientStudy transient_study(const TransientBatchRunner& runner,
                               const std::vector<std::vector<double>>& corners,
                               const TransientStudyOptions& opts = {});

}  // namespace varmor::analysis
