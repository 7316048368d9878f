// Figure 5 reproduction: clock-tree RCNetA (78 nodes, routed on M5/M6/M7
// with one width parameter per layer). Left plot: histogram of the relative
// errors of the 5 most dominant poles over Monte-Carlo width variations
// (3 sigma = 30%, normal). Right plot: relative error of THE dominant pole
// as a function of M5/M6 width variation (five M5 curves, M6 swept).
//
// Paper's shape: errors "completely negligible" (the histogram mass sits at
// ~1e-3 % and the error surface stays far below 1%).

#include "analysis/monte_carlo.h"
#include "bench_util.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "mor/lowrank_pmor.h"

using namespace varmor;

int main() {
    bench::banner("fig5_rcneta: clock tree RCNetA, 78 nodes, M5/M6/M7 width variation",
                  "Li et al., DATE'05, Fig. 5 (section 5.3)");

    circuit::ParametricSystem sys =
        assemble_mna(circuit::clock_tree(circuit::rcnet_a_options()));
    std::printf("RCNetA: %d nodes, 3 width parameters\n", sys.size());

    // "reduced order model of size 29 while matching the moments of s to the
    // 4th order and the rest of multi-parameter moments to the 2nd order".
    // Our per-layer width parameters scale whole-layer subcircuits, which
    // keeps the generalized sensitivities at effective rank ~2 (see README,
    // "SVD ranks of the clock-tree benches"), hence rank = 2 instead of the
    // paper's rank-1.
    mor::LowRankPmorOptions opts;
    opts.s_order = 4;
    opts.param_order = 2;
    opts.rank = 2;
    mor::LowRankPmorResult rom = mor::lowrank_pmor(sys, opts);
    std::printf("low-rank parametric ROM: %d states (paper: 29)\n\n", rom.model.size());

    // ---- left plot: MC error histogram over the 5 most dominant poles ----
    analysis::MonteCarloOptions mc;
    mc.samples = 200;  // 200 instances x 5 poles = 1000 pole comparisons
    mc.sigma = 0.1;    // 3 sigma = 30%
    const auto samples = analysis::sample_parameters(3, mc);

    analysis::PoleOptions popts;
    popts.count = 5;
    popts.use_dense = true;  // n = 78: exact reference poles
    analysis::PoleErrorStudy study = analysis::pole_error_study(sys, rom.model, samples, popts);

    std::vector<double> errors_pct;
    for (double e : study.flattened) errors_pct.push_back(100.0 * e);
    analysis::Histogram h = analysis::make_histogram(errors_pct, 10);
    util::Table hist({"pole error bin [%]", "occurrence"});
    for (std::size_t b = 0; b < h.counts.size(); ++b)
        hist.add_row({util::Table::num(h.edges[b], 3) + " - " + util::Table::num(h.edges[b + 1], 3),
                      std::to_string(h.counts[b])});
    hist.print(std::cout);
    std::printf("pole comparisons: %zu | max error %.4f%% | mean %.5f%%\n\n",
                study.flattened.size(), 100.0 * study.max_error, 100.0 * study.mean_error);

    // ---- right plot: dominant-pole error vs M5/M6 width variation ----
    util::Table surf({"M6 var [%]", "M5 -30%", "M5 -15%", "M5 0%", "M5 +15%", "M5 +30%"});
    double surface_max = 0.0;
    for (int m6 = -30; m6 <= 30; m6 += 10) {
        std::vector<std::string> row{std::to_string(m6)};
        for (int m5 = -30; m5 <= 30; m5 += 15) {
            const std::vector<double> p{m5 / 100.0, m6 / 100.0, 0.0};
            const auto full = analysis::dominant_poles_at(sys, p, popts);
            const auto red = analysis::dominant_poles_reduced(rom.model, p, 10);
            const double err = analysis::pole_match_errors(full, red).front();
            surface_max = std::max(surface_max, err);
            row.push_back(util::Table::num(100.0 * err, 3));
        }
        surf.add_row(row);
    }
    std::printf("dominant-pole relative error [%%] vs M5/M6 width variation:\n");
    surf.print(std::cout);
    std::printf("\n");

    bench::ShapeChecks checks;
    checks.expect(study.max_error < 0.005,
                  "MC pole errors are negligible (paper: 'completely negligible')");
    checks.expect(surface_max < 0.005,
                  "dominant-pole error stays negligible across the +-30% surface");
    checks.expect(rom.factorizations == 1, "one factorization builds the whole ROM");
    return checks.exit_code();
}
