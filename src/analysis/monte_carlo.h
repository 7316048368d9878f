#pragma once

#include <vector>

#include "analysis/poles.h"
#include "circuit/parametric_system.h"
#include "mor/reduced_model.h"
#include "mor/rom_eval.h"
#include "solve/parametric_context.h"
#include "util/rng.h"

namespace varmor::analysis {

/// Monte-Carlo sampling of the variational parameter space.
struct MonteCarloOptions {
    int samples = 200;
    /// Per-parameter standard deviation; the paper's "up to 30% (3 sigma)
    /// variations according to the normal distribution" is sigma_rel = 0.1
    /// with truncation at 3 sigma.
    double sigma = 0.1;
    double truncate_sigmas = 3.0;
    std::uint64_t seed = 1234;
};

/// Draws parameter vectors p ~ N(0, sigma^2 I) truncated at
/// +-truncate_sigmas * sigma, the protocol of section 5.3.
std::vector<std::vector<double>> sample_parameters(int num_params,
                                                   const MonteCarloOptions& opts);

/// Per-instance comparison of reduced vs full dominant poles over a set of
/// parameter samples (the Fig. 5 / Fig. 6 left-plot study).
struct PoleErrorStudy {
    /// errors[sample][pole] = relative error of that dominant pole. Empty for
    /// a sample whose full model has no finite poles (nothing to match).
    std::vector<std::vector<double>> errors;
    /// All errors flattened (feeds the histogram).
    std::vector<double> flattened;
    /// Zero (not NaN) when no poles matched at any sample.
    double max_error = 0.0;
    double mean_error = 0.0;
};

/// Runs the study on the shared batched-solve scaffold: all samples carry
/// the context's union sparsity pattern and one symbolic LU analysis
/// (solve::ParametricSolveContext::factor_g), the reduced side evaluates on
/// the given ROM engine, and samples fan out across the thread pool with
/// per-thread assembly buffers. `threads` is the section width
/// (util::ThreadPool). Each sample's computation is independent of the
/// width, so results are bit-identical to a serial run. Context and engine
/// must outlive the call.
PoleErrorStudy pole_error_study(const solve::ParametricSolveContext& ctx,
                                const mor::RomEvalEngine& rom_engine,
                                const std::vector<std::vector<double>>& samples,
                                const PoleOptions& pole_opts = {}, int threads = 0);

/// One-shot convenience: builds a private solve context and ROM engine.
PoleErrorStudy pole_error_study(const circuit::ParametricSystem& sys,
                                const mor::ReducedModel& model,
                                const std::vector<std::vector<double>>& samples,
                                const PoleOptions& pole_opts = {}, int threads = 0);

/// Simple fixed-width histogram.
struct Histogram {
    std::vector<double> edges;   ///< bins+1 edges
    std::vector<int> counts;     ///< bins counts
};

Histogram make_histogram(const std::vector<double>& values, int bins);

}  // namespace varmor::analysis
