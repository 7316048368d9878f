// Ablation (sections 4.1/4.2): effect of the SVD rank k_svd and of the
// adjoint (A0^T) Krylov subspaces on model size and accuracy.
//
// Paper claims probed here:
//  - "a rank-one approximation is usually sufficient" — we report the
//    accuracy-vs-rank curve (on our per-layer width workloads rank 2 is the
//    knee; the singular spectra are printed to show why);
//  - dropping the adjoint subspaces halves the per-parameter basis but
//    "incorporating the useful Krylov subspaces of A0^T improves the
//    accuracy".

#include "analysis/poles.h"
#include "bench_util.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "mor/lowrank_pmor.h"

using namespace varmor;

int main() {
    bench::banner("ablation_rank_adjoint: SVD rank and adjoint subspaces",
                  "Li et al., DATE'05, sections 4.1/4.2 design knobs");
    bench::ShapeChecks checks;

    circuit::ParametricSystem sys =
        assemble_mna(circuit::clock_tree(circuit::rcnet_a_options()));
    const std::vector<double> p{0.25, -0.25, 0.2};
    analysis::PoleOptions popts;
    popts.count = 5;
    popts.use_dense = true;
    const auto full_poles = analysis::dominant_poles_at(sys, p, popts);

    auto worst_pole_err = [&](const mor::ReducedModel& m) {
        const auto red = analysis::dominant_poles_reduced(m, p, 14);
        double worst = 0;
        for (double e : analysis::pole_match_errors(full_poles, red))
            worst = std::max(worst, e);
        return worst;
    };

    // ---- rank sweep ----
    util::Table table({"rank", "size (adjoint)", "worst pole err (adjoint)",
                       "size (compact)", "worst pole err (compact)"});
    std::vector<double> err_adj, err_cmp;
    std::vector<double> spectrum;
    // The eight re-runs below differ only in rank/adjoint knobs: one shared
    // nominal factorization serves them all.
    const auto g0_lu = std::make_shared<const sparse::SparseLu>(sys.g0);
    for (int rank = 1; rank <= 4; ++rank) {
        mor::LowRankPmorOptions opts;
        opts.s_order = 4;
        opts.param_order = 2;
        opts.rank = rank;
        opts.g0_factor = g0_lu;
        opts.include_adjoint = true;
        const mor::LowRankPmorResult with_adj = mor::lowrank_pmor(sys, opts);
        opts.include_adjoint = false;
        const mor::LowRankPmorResult compact = mor::lowrank_pmor(sys, opts);
        err_adj.push_back(worst_pole_err(with_adj.model));
        err_cmp.push_back(worst_pole_err(compact.model));
        if (rank == 4) spectrum = with_adj.sensitivity_spectra.front();
        table.add_row({std::to_string(rank), std::to_string(with_adj.model.size()),
                       util::Table::num(err_adj.back(), 3),
                       std::to_string(compact.model.size()),
                       util::Table::num(err_cmp.back(), 3)});
    }
    table.print(std::cout);

    std::printf("\nleading singular values of the M5 generalized sensitivity: ");
    for (double s : spectrum) std::printf("%.3g ", s);
    std::printf("\n(slow decay: per-layer width parameters scale whole-layer "
                "subcircuits; see README, \"SVD ranks of the clock-tree "
                "benches\")\n\n");

    checks.expect(err_adj[1] < err_adj[0] && err_adj[2] < err_adj[1],
                  "accuracy improves monotonically with the SVD rank");
    checks.expect(err_adj[2] < 1e-4,
                  "rank 3 reaches 'negligible' pole error on RCNetA");
    // Adjoint subspaces: at equal rank the adjoint variant must not be worse
    // (paper: improves accuracy of the reduction of the ORIGINAL system).
    int adjoint_wins = 0;
    for (std::size_t i = 0; i < err_adj.size(); ++i)
        if (err_adj[i] <= err_cmp[i] * 1.5) ++adjoint_wins;
    checks.expect(adjoint_wins >= 3,
                  "including the A0^T subspaces is at least as accurate at "
                  "nearly every rank");
    return checks.exit_code();
}
