#include "analysis/transient_batch.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "la/ops.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace varmor::analysis {

using la::Vector;

TransientBatchRunner::TransientBatchRunner(const circuit::ParametricSystem& sys,
                                           const TransientOptions& opts)
    : opts_(opts), owned_ctx_(std::make_unique<solve::ParametricSolveContext>(sys)) {
    ctx_ = owned_ctx_.get();
    build_pencils(nullptr);
}

TransientBatchRunner::TransientBatchRunner(const solve::ParametricSolveContext& ctx,
                                           const TransientOptions& opts)
    : opts_(opts), ctx_(&ctx) {
    build_pencils(nullptr);
}

TransientBatchRunner::TransientBatchRunner(solve::TrapezoidBatchCache& cache,
                                           const TransientOptions& opts)
    : opts_(opts), ctx_(&cache.context()) {
    build_pencils(&cache);
}

void TransientBatchRunner::build_pencils(solve::TrapezoidBatchCache* cache) {
    grid_ = detail::make_grid(opts_);  // fail fast on a bad grid, before factoring

    // One TrapezoidBatch per DISTINCT dt: schedule segments that repeat a
    // step size share its pencil (and a corner refactorizes it only once).
    // With a session cache the pencil may predate this runner entirely.
    seg_pencil_.reserve(grid_.segment_dt.size());
    for (double dt : grid_.segment_dt) {
        int idx = -1;
        for (std::size_t k = 0; k < pencils_.size(); ++k)
            if (pencils_[k]->dt() == dt) {
                idx = static_cast<int>(k);
                break;
            }
        if (idx < 0) {
            pencils_.push_back(cache ? cache->get(dt)
                                     : std::make_shared<const solve::TrapezoidBatch>(
                                           *ctx_, dt));
            idx = static_cast<int>(pencils_.size()) - 1;
        }
        seg_pencil_.push_back(idx);
    }
}

TransientBatchRunner::Scratch TransientBatchRunner::make_scratch() const {
    Scratch scratch;
    scratch.pencil.reserve(pencils_.size());
    for (const auto& pencil : pencils_)
        scratch.pencil.push_back(pencil->make_scratch());
    return scratch;
}

TransientResult TransientBatchRunner::run(const std::vector<double>& p,
                                          const InputFn& input, Scratch& scratch) const {
    const std::vector<Vector> forcing = detail::forcing_series(
        grid_, input, [&](const Vector& u) { return la::matvec(ctx_->system().b, u); });
    return run_with_forcing(p, forcing, scratch);
}

TransientResult TransientBatchRunner::run_with_forcing(
    const std::vector<double>& p, const std::vector<Vector>& forcing,
    Scratch& scratch) const {
    check(static_cast<int>(p.size()) == num_params(),
          "TransientBatchRunner: parameter vector length mismatch");
    VARMOR_FAULT_POINT_DETAIL("transient.corner",
                              p.empty() ? std::string() : std::to_string(p[0]));

    // Per-corner pencil state, filled lazily on the first step that uses a
    // given dt: stamp N(p), then M(p) under the shared refactorize-or-
    // fallback policy (solve::TrapezoidBatch). A flat grid touches exactly
    // one pencil; a schedule refactorizes once per distinct dt.
    std::vector<const sparse::SparseLu*> solver(pencils_.size(), nullptr);
    auto ensure = [&](int pencil_idx) {
        if (solver[static_cast<std::size_t>(pencil_idx)]) return;
        const solve::TrapezoidBatch& pencil = *pencils_[static_cast<std::size_t>(pencil_idx)];
        solve::TrapezoidBatch::Scratch& s = scratch.pencil[static_cast<std::size_t>(pencil_idx)];
        pencil.stamp_rhs(p, s);
        solver[static_cast<std::size_t>(pencil_idx)] = &pencil.factor_lhs(p, s);
    };

    return detail::trapezoidal(
        num_ports(), grid_, forcing,
        [&](int seg, const Vector& r) {
            const int k = seg_pencil_[static_cast<std::size_t>(seg)];
            ensure(k);
            return solver[static_cast<std::size_t>(k)]->solve(r);
        },
        [&](int seg, const Vector& x) {
            const int k = seg_pencil_[static_cast<std::size_t>(seg)];
            ensure(k);
            return scratch.pencil[static_cast<std::size_t>(k)].rhs.apply(x);
        },
        [&](const Vector& x) { return la::matvec_transpose(ctx_->system().l, x); },
        size());
}

TransientResult TransientBatchRunner::run(const std::vector<double>& p,
                                          const InputFn& input) const {
    Scratch scratch = make_scratch();
    return run(p, input, scratch);
}

std::vector<Vector> TransientBatchRunner::make_forcing(const InputFn& input) const {
    // The input series is corner-independent: evaluate u(t) and the B
    // product once for the whole batch instead of once per corner, and share
    // the series read-only across workers.
    return detail::forcing_series(
        grid_, input, [&](const Vector& u) { return la::matvec(ctx_->system().b, u); });
}

TransientBatchRunner::CornerOutcome TransientBatchRunner::run_corner_captured(
    const std::vector<double>& p, const std::vector<Vector>& forcing,
    Scratch& scratch) const {
    // Every batched corner — service delay lane or run_batch driver — funnels
    // through here, so this is where the per-corner cost distribution lives.
    // A corner is ms-scale; two clock reads are noise.
    static obs::Counter& corners = obs::Registry::global().counter("transient.corners");
    static obs::Counter& corner_failures =
        obs::Registry::global().counter("transient.corner_failures");
    static obs::Histogram& corner_hist =
        obs::Registry::global().histogram("transient.corner_ns");
    const std::int64_t t0 = obs::enabled() ? util::Timer::now_ns() : 0;
    CornerOutcome out;
    try {
        out.result = run_with_forcing(p, forcing, scratch);
    } catch (...) {
        // The corner's own failure, isolated to its slot. The per-corner
        // pencil state is scratch-local and rebuilt per corner, so a failed
        // corner leaves nothing behind for the next one on this scratch.
        out.error = std::current_exception();
        corner_failures.add();
    }
    corners.add();
    if (t0 != 0) corner_hist.record(util::Timer::now_ns() - t0);
    return out;
}

std::vector<TransientBatchRunner::CornerOutcome> TransientBatchRunner::run_batch_captured(
    const std::vector<std::vector<double>>& corners, const InputFn& input,
    int threads) const {
    const std::vector<Vector> forcing = make_forcing(input);
    std::vector<CornerOutcome> out(corners.size());
    util::ThreadPool::global().parallel_chunks(
        0, static_cast<int>(corners.size()),
        [&](int, int chunk_begin, int chunk_end) {
            Scratch scratch = make_scratch();
            for (int i = chunk_begin; i < chunk_end; ++i)
                out[static_cast<std::size_t>(i)] = run_corner_captured(
                    corners[static_cast<std::size_t>(i)], forcing, scratch);
        },
        threads);
    return out;
}

std::vector<TransientResult> TransientBatchRunner::run_batch(
    const std::vector<std::vector<double>>& corners, const InputFn& input,
    int threads) const {
    std::vector<CornerOutcome> outcomes = run_batch_captured(corners, input, threads);
    std::vector<TransientResult> out;
    out.reserve(outcomes.size());
    for (CornerOutcome& o : outcomes) {
        // The historical contract: the first failing corner (in corner
        // order, independent of thread count) fails the whole batch.
        if (o.error) std::rethrow_exception(o.error);
        out.push_back(std::move(*o.result));
    }
    return out;
}

namespace {

TransientStudy run_transient_study(const TransientBatchRunner& runner,
                                   const std::vector<std::vector<double>>& corners,
                                   const TransientStudyOptions& opts) {
    check(!corners.empty(), "transient_study: no corners");
    const int observe =
        opts.observe_port < 0 ? runner.num_ports() - 1 : opts.observe_port;
    check(observe >= 0 && observe < runner.num_ports(),
          "transient_study: observe_port out of range");
    const InputFn input =
        step_input(runner.num_ports(), opts.input_port, opts.amplitude);

    TransientStudy study;
    study.level = opts.level;
    study.waveforms = runner.run_batch(corners, input, opts.threads);
    if (std::isnan(study.level)) {
        // Derive the threshold from the nominal corner's settled response.
        // If p = 0 is already in the batch its waveform IS the nominal run
        // (bit-identical by the engine's batch/loop contract), so reuse it
        // instead of simulating the corner a second time.
        const TransientResult* nominal = nullptr;
        for (std::size_t i = 0; i < corners.size(); ++i) {
            const std::vector<double>& p = corners[i];
            if (std::all_of(p.begin(), p.end(), [](double v) { return v == 0.0; })) {
                nominal = &study.waveforms[i];
                break;
            }
        }
        std::optional<TransientResult> computed;
        if (!nominal) {
            const std::vector<double> p0(static_cast<std::size_t>(runner.num_params()), 0.0);
            computed = runner.run(p0, input);
            nominal = &*computed;
        }
        study.level =
            opts.level_fraction * nominal->ports[static_cast<std::size_t>(observe)].back();
    }
    study.delays.reserve(corners.size());
    for (const TransientResult& w : study.waveforms) {
        const std::optional<double> d = crossing_time(w, observe, study.level);
        study.delays.push_back(d);
        if (d) study.delay_samples.push_back(*d);
    }
    study.num_crossed = static_cast<int>(study.delay_samples.size());
    if (!study.delay_samples.empty()) {
        for (double d : study.delay_samples) study.mean_delay += d;
        study.mean_delay /= static_cast<double>(study.delay_samples.size());
        for (double d : study.delay_samples)
            study.sigma_delay += (d - study.mean_delay) * (d - study.mean_delay);
        study.sigma_delay =
            std::sqrt(study.sigma_delay / static_cast<double>(study.delay_samples.size()));
        study.histogram = make_histogram(study.delay_samples, opts.histogram_bins);
    }
    return study;
}

}  // namespace

TransientStudy transient_study(const circuit::ParametricSystem& sys,
                               const std::vector<std::vector<double>>& corners,
                               const TransientStudyOptions& opts) {
    check(!corners.empty(), "transient_study: no corners");
    const TransientBatchRunner runner(sys, opts.transient);
    return run_transient_study(runner, corners, opts);
}

TransientStudy transient_study(const solve::ParametricSolveContext& ctx,
                               const std::vector<std::vector<double>>& corners,
                               const TransientStudyOptions& opts) {
    check(!corners.empty(), "transient_study: no corners");
    const TransientBatchRunner runner(ctx, opts.transient);
    return run_transient_study(runner, corners, opts);
}

TransientStudy transient_study(const TransientBatchRunner& runner,
                               const std::vector<std::vector<double>>& corners,
                               const TransientStudyOptions& opts) {
    check(!corners.empty(), "transient_study: no corners");
    return run_transient_study(runner, corners, opts);
}

}  // namespace varmor::analysis
