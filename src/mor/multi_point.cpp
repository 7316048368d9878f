#include "mor/multi_point.h"

#include "la/orth.h"
#include "util/check.h"

namespace varmor::mor {

MultiPointResult multi_point_basis(const solve::ParametricSolveContext& ctx,
                                   const std::vector<std::vector<double>>& samples,
                                   const MultiPointOptions& opts) {
    check(!samples.empty(), "multi_point_basis: need at least one sample point");

    PrimaOptions prima_opts;
    prima_opts.blocks = opts.blocks_per_sample;
    prima_opts.orth = opts.orth;

    // Every G(p) carries the context's union sparsity pattern, so ONE
    // symbolic analysis (fill-reducing ordering, shared with every other
    // study on the context) serves every expansion point; each point pays
    // only its numeric factorization, assembled by value scatter into
    // fixed-pattern targets (ParametricSolveContext::factor_g).
    solve::ParametricSolveContext::GcScratch gc = ctx.make_gc_scratch();

    MultiPointResult out;
    out.basis = la::Matrix(ctx.size(), 0);
    for (const std::vector<double>& p : samples) {
        check(static_cast<int>(p.size()) == ctx.num_params(),
              "multi_point_basis: sample dimension mismatch");
        ctx.stamper().c_at(p, gc.c);
        const sparse::SparseLu lu = ctx.factor_g(p, gc);
        ++out.factorizations;
        const la::Matrix vi = prima_basis(lu, gc.c, ctx.system().b, prima_opts);
        out.basis = la::extend_basis(std::move(out.basis), vi, opts.orth);
    }
    return out;
}

MultiPointResult multi_point_basis(const circuit::ParametricSystem& sys,
                                   const std::vector<std::vector<double>>& samples,
                                   const MultiPointOptions& opts) {
    const solve::ParametricSolveContext ctx(sys);
    return multi_point_basis(ctx, samples, opts);
}

std::vector<std::vector<double>> grid_samples(int num_params,
                                              const std::vector<double>& levels) {
    check(num_params >= 1, "grid_samples: need at least one parameter");
    check(!levels.empty(), "grid_samples: need at least one level");
    std::vector<std::vector<double>> grid{{}};
    for (int i = 0; i < num_params; ++i) {
        std::vector<std::vector<double>> next;
        next.reserve(grid.size() * levels.size());
        for (const auto& partial : grid) {
            for (double level : levels) {
                std::vector<double> extended = partial;
                extended.push_back(level);
                next.push_back(std::move(extended));
            }
        }
        grid = std::move(next);
    }
    return grid;
}

}  // namespace varmor::mor
