// Figure 6 reproduction: clock-tree RCNetB (333 nodes). Same protocol as
// Fig. 5 with the larger net: parametric ROM of size ~40 matching all
// multi-parameter moments to the 3rd order; Monte-Carlo error histogram of
// the 5 most dominant poles (1000 pole comparisons) and the dominant-pole
// error surface over M5/M6 width variation.
//
// Paper's numbers: "maximum error out of 1000 poles is less than 0.12%";
// dominant-pole error "less than 0.3%" over the +-30% surface.

#include "analysis/monte_carlo.h"
#include "bench_util.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "mor/lowrank_pmor.h"

using namespace varmor;

int main() {
    bench::banner("fig6_rcnetb: clock tree RCNetB, 333 nodes, M5/M6/M7 width variation",
                  "Li et al., DATE'05, Fig. 6 (section 5.3)");

    circuit::ParametricSystem sys =
        assemble_mna(circuit::clock_tree(circuit::rcnet_b_options()));
    std::printf("RCNetB: %d nodes, 3 width parameters\n", sys.size());

    // "model of size 40 while matching all the multi-parameter moments to
    // the 3rd order". Our per-layer width parameters have slowly decaying
    // generalized-sensitivity spectra (they scale whole-layer subcircuits;
    // see README, "SVD ranks of the clock-tree benches"), so a rank-3
    // approximation plays the role of the paper's rank-1. A second,
    // high-fidelity configuration (rank 4, parameter order 4) demonstrates
    // the paper's 0.12% headline accuracy.
    mor::LowRankPmorOptions opts;
    opts.s_order = 3;
    opts.param_order = 3;
    opts.rank = 3;
    mor::LowRankPmorResult rom = mor::lowrank_pmor(sys, opts);
    std::printf("low-rank parametric ROM: %d states (paper: 40)\n\n", rom.model.size());

    mor::LowRankPmorOptions hi_opts;
    hi_opts.s_order = 3;
    hi_opts.param_order = 4;
    hi_opts.rank = 4;
    mor::LowRankPmorResult rom_hi = mor::lowrank_pmor(sys, hi_opts);

    analysis::MonteCarloOptions mc;
    mc.samples = 200;  // x5 poles = the paper's "1000 poles"
    mc.sigma = 0.1;
    const auto samples = analysis::sample_parameters(3, mc);

    analysis::PoleOptions popts;
    popts.count = 5;
    popts.subspace = 90;
    analysis::PoleErrorStudy study = analysis::pole_error_study(sys, rom.model, samples, popts);

    std::vector<double> errors_pct;
    for (double e : study.flattened) errors_pct.push_back(100.0 * e);
    analysis::Histogram h = analysis::make_histogram(errors_pct, 10);
    util::Table hist({"pole error bin [%]", "occurrence"});
    for (std::size_t b = 0; b < h.counts.size(); ++b)
        hist.add_row({util::Table::num(h.edges[b], 3) + " - " + util::Table::num(h.edges[b + 1], 3),
                      std::to_string(h.counts[b])});
    hist.print(std::cout);
    std::printf("pole comparisons: %zu | max error %.4f%% | mean %.5f%%\n",
                study.flattened.size(), 100.0 * study.max_error, 100.0 * study.mean_error);

    analysis::PoleErrorStudy study_hi =
        analysis::pole_error_study(sys, rom_hi.model, samples, popts);
    std::printf("high-fidelity ROM (%d states): max error %.4f%% (paper: < 0.12%%) | "
                "mean %.5f%%\n\n",
                rom_hi.model.size(), 100.0 * study_hi.max_error,
                100.0 * study_hi.mean_error);

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
    checks.expect(study.max_error < 0.005 && study.mean_error < 5e-4,
                  "compact ROM keeps MC pole errors far below 1% (negligible "
                  "for timing purposes)");
    checks.expect(study_hi.max_error < 0.0012,
                  "high-fidelity ROM reaches the paper's < 0.12% headline over "
                  "1000 poles");
    checks.expect(surface_max < 0.003,
                  "dominant-pole error below 0.3% across the +-30% surface (paper)");
    checks.expect(rom.model.size() <= 100,
                  "compact ROM stays small (paper: 40 at rank 1; ours needs rank 3)");
    return checks.exit_code();
}
