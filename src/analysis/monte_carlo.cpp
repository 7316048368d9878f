#include "analysis/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "mor/rom_eval.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace varmor::analysis {

std::vector<std::vector<double>> sample_parameters(int num_params,
                                                   const MonteCarloOptions& opts) {
    check(num_params >= 1, "sample_parameters: need at least one parameter");
    check(opts.samples >= 1, "sample_parameters: need at least one sample");
    check(opts.sigma > 0, "sample_parameters: sigma must be positive");

    util::Rng rng(opts.seed);
    const double bound = opts.truncate_sigmas * opts.sigma;
    std::vector<std::vector<double>> samples;
    samples.reserve(static_cast<std::size_t>(opts.samples));
    for (int k = 0; k < opts.samples; ++k) {
        std::vector<double> p(static_cast<std::size_t>(num_params));
        for (double& x : p) x = rng.truncated_normal(0.0, opts.sigma, -bound, bound);
        samples.push_back(std::move(p));
    }
    return samples;
}

PoleErrorStudy pole_error_study(const solve::ParametricSolveContext& ctx,
                                const mor::RomEvalEngine& rom_engine,
                                const std::vector<std::vector<double>>& samples,
                                const PoleOptions& pole_opts, int threads) {
    check(!samples.empty(), "pole_error_study: no samples");

    // Shared read-only batch state lives in the context: union patterns for
    // G(p)/C(p) and one symbolic LU analysis serving every sample's
    // factorization on the full side; the packed-affine ROM evaluation
    // engine on the reduced side.
    std::vector<std::vector<double>> errors(samples.size());
    auto run = [&](int, int chunk_begin, int chunk_end) {
        solve::ParametricSolveContext::GcScratch gc = ctx.make_gc_scratch();
        mor::RomEvalWorkspace rom_ws;
        for (int i = chunk_begin; i < chunk_end; ++i) {
            const std::vector<double>& p = samples[static_cast<std::size_t>(i)];
            ctx.stamper().c_at(p, gc.c);
            const sparse::SparseLu glu = ctx.factor_g(p, gc);
            const std::vector<la::cplx> full = dominant_poles(glu, gc.c, pole_opts);
            // No finite full-model poles at this sample (e.g. a purely
            // resistive instance): nothing to match, record no errors.
            if (full.empty()) continue;
            // Give the matcher more reduced poles than requested so a
            // slightly misordered reduced spectrum still pairs correctly.
            // Engine poles are bit-identical to ReducedModel::poles(), but
            // the reduced pencils are stamped/factored on reused scratch.
            rom_engine.stamp_parameters(p, rom_ws);
            std::vector<la::cplx> red = rom_engine.poles(rom_ws);
            const std::size_t want = static_cast<std::size_t>(pole_opts.count) * 2 + 4;
            if (red.size() > want) red.resize(want);
            errors[static_cast<std::size_t>(i)] = pole_match_errors(full, red);
        }
    };
    util::ThreadPool::global().parallel_chunks(0, static_cast<int>(samples.size()), run, threads);

    PoleErrorStudy study;
    study.errors = std::move(errors);
    for (const std::vector<double>& err : study.errors)
        study.flattened.insert(study.flattened.end(), err.begin(), err.end());
    for (double e : study.flattened) {
        study.max_error = std::max(study.max_error, e);
        study.mean_error += e;
    }
    // Guard the empty case: with no matched poles at all the division would
    // return mean_error = NaN; keep the zero-initialized statistics instead.
    if (!study.flattened.empty())
        study.mean_error /= static_cast<double>(study.flattened.size());
    return study;
}

PoleErrorStudy pole_error_study(const circuit::ParametricSystem& sys,
                                const mor::ReducedModel& model,
                                const std::vector<std::vector<double>>& samples,
                                const PoleOptions& pole_opts, int threads) {
    const solve::ParametricSolveContext ctx(sys);
    const mor::RomEvalEngine rom_engine(model);
    return pole_error_study(ctx, rom_engine, samples, pole_opts, threads);
}

Histogram make_histogram(const std::vector<double>& values, int bins) {
    check(!values.empty(), "make_histogram: no values");
    check(bins >= 1, "make_histogram: need at least one bin");
    const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    double lo = *mn, hi = *mx;
    if (hi <= lo) hi = lo + 1e-300 + std::abs(lo) * 1e-12 + 1e-30;

    Histogram h;
    h.edges.resize(static_cast<std::size_t>(bins) + 1);
    h.counts.assign(static_cast<std::size_t>(bins), 0);
    const double width = (hi - lo) / bins;
    for (int i = 0; i <= bins; ++i) h.edges[static_cast<std::size_t>(i)] = lo + width * i;
    for (double v : values) {
        int bin = static_cast<int>((v - lo) / width);
        bin = std::clamp(bin, 0, bins - 1);
        ++h.counts[static_cast<std::size_t>(bin)];
    }
    return h;
}

}  // namespace varmor::analysis
