#include "analysis/freq_sweep.h"

#include <cmath>

#include "la/ops.h"
#include "mor/rom_eval.h"
#include "util/check.h"
#include "util/constants.h"
#include "util/thread_pool.h"

namespace varmor::analysis {

using la::cplx;
using la::ZMatrix;

std::vector<double> log_frequencies(double lo, double hi, int count) {
    check(lo > 0 && hi > lo && count >= 2, "log_frequencies: invalid range");
    std::vector<double> f(static_cast<std::size_t>(count));
    const double step = std::log10(hi / lo) / (count - 1);
    for (int i = 0; i < count; ++i)
        f[static_cast<std::size_t>(i)] = lo * std::pow(10.0, step * i);
    return f;
}

std::vector<double> linear_frequencies(double lo, double hi, int count) {
    check(hi > lo && count >= 2, "linear_frequencies: invalid range");
    std::vector<double> f(static_cast<std::size_t>(count));
    const double step = (hi - lo) / (count - 1);
    for (int i = 0; i < count; ++i) f[static_cast<std::size_t>(i)] = lo + step * i;
    return f;
}

std::vector<ZMatrix> sweep_full(const solve::ParametricSolveContext& ctx,
                                const std::vector<double>& p,
                                const std::vector<double>& freqs, int threads) {
    std::vector<ZMatrix> out(freqs.size());
    if (freqs.empty()) return out;

    const la::ZMatrix bz = la::to_complex(ctx.system().b);
    const la::ZMatrix lzt = la::transpose(la::to_complex(ctx.system().l));

    // The batched-pencil scaffold lives in the context: one shared symbolic
    // analysis of the union(G, C) pattern, a reference factorization at the
    // first frequency, and the refactorize-or-fallback policy per point
    // (solve::RefactorBatchT). Each point's result depends only on its own
    // values, so parallel sweeps are bit-identical to serial ones.
    auto s_of = [&](double f) { return cplx(0.0, util::two_pi_f(f)); };
    const solve::PencilBatch pencil(ctx, p, s_of(freqs[0]));
    out[0] = la::matmul(lzt, pencil.reference().solve(bz));

    auto run = [&](int, int chunk_begin, int chunk_end) {
        solve::PencilBatch::Scratch scratch = pencil.make_scratch();
        for (int i = chunk_begin; i < chunk_end; ++i) {
            const sparse::ZSparseLu& lu =
                pencil.factor(s_of(freqs[static_cast<std::size_t>(i)]), scratch);
            out[static_cast<std::size_t>(i)] = la::matmul(lzt, lu.solve(bz));
        }
    };

    util::ThreadPool::global().parallel_chunks(1, static_cast<int>(freqs.size()), run, threads);
    return out;
}

std::vector<ZMatrix> sweep_full(const circuit::ParametricSystem& sys,
                                const std::vector<double>& p,
                                const std::vector<double>& freqs, int threads) {
    const solve::ParametricSolveContext ctx(sys);
    return sweep_full(ctx, p, freqs, threads);
}

std::vector<ZMatrix> sweep_reduced(const mor::ReducedModel& model,
                                   const std::vector<double>& p,
                                   const std::vector<double>& freqs, int threads) {
    if (freqs.empty()) return {};
    std::vector<cplx> s_points;
    s_points.reserve(freqs.size());
    for (double f : freqs) s_points.emplace_back(0.0, util::two_pi_f(f));
    const mor::RomEvalEngine engine(model);
    auto grid = engine.transfer_grid({p}, s_points, threads);
    return std::move(grid.front());
}

std::vector<double> magnitude_series(const std::vector<ZMatrix>& sweep, int row, int col) {
    std::vector<double> mag;
    mag.reserve(sweep.size());
    for (const ZMatrix& h : sweep) {
        check(row >= 0 && row < h.rows() && col >= 0 && col < h.cols(),
              "magnitude_series: port index out of range");
        mag.push_back(std::abs(h(row, col)));
    }
    return mag;
}

std::vector<double> admittance_series(const std::vector<ZMatrix>& sweep, int row, int col) {
    std::vector<double> mag;
    mag.reserve(sweep.size());
    for (const ZMatrix& h : sweep) {
        check(h.rows() == h.cols(), "admittance_series: square port matrix required");
        check(row >= 0 && row < h.rows() && col >= 0 && col < h.cols(),
              "admittance_series: port index out of range");
        const ZMatrix y = la::inverse(h);
        mag.push_back(std::abs(y(row, col)));
    }
    return mag;
}

std::vector<double> voltage_transfer_series(const std::vector<ZMatrix>& sweep,
                                            int in_port, int obs_port) {
    std::vector<double> mag;
    mag.reserve(sweep.size());
    for (const ZMatrix& h : sweep) {
        check(in_port >= 0 && in_port < h.cols() && obs_port >= 0 && obs_port < h.rows(),
              "voltage_transfer_series: port index out of range");
        const cplx vin = h(in_port, in_port);
        check(std::abs(vin) > 0, "voltage_transfer_series: zero input-node voltage");
        mag.push_back(std::abs(h(obs_port, in_port) / vin));
    }
    return mag;
}

SeriesError series_error(const std::vector<double>& reference,
                         const std::vector<double>& approximation) {
    check(reference.size() == approximation.size() && !reference.empty(),
          "series_error: series length mismatch");
    double scale = 0.0;
    for (double v : reference) scale = std::max(scale, std::abs(v));
    check(scale > 0, "series_error: zero reference series");

    SeriesError err;
    double acc = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const double rel = std::abs(reference[i] - approximation[i]) / scale;
        err.max_rel = std::max(err.max_rel, rel);
        acc += rel * rel;
    }
    err.rms_rel = std::sqrt(acc / static_cast<double>(reference.size()));
    return err;
}

}  // namespace varmor::analysis
