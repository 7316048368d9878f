#include "analysis/variability_study.h"

#include "util/check.h"
#include "util/constants.h"

namespace varmor::analysis {

VariabilityStudy::VariabilityStudy(const circuit::ParametricSystem& sys)
    : ctx_(std::make_unique<solve::ParametricSolveContext>(sys)),
      trap_cache_(std::make_unique<solve::TrapezoidBatchCache>(*ctx_)) {}

std::vector<la::ZMatrix> VariabilityStudy::sweep(const std::vector<double>& p,
                                                 const std::vector<double>& freqs,
                                                 int threads) const {
    return sweep_full(*ctx_, p, freqs, threads);
}

TransientStudy VariabilityStudy::transient(const std::vector<std::vector<double>>& corners,
                                           const TransientStudyOptions& opts) const {
    // The runner pulls its pencils from the session cache: a repeated study
    // with the same step sizes skips even the nominal factorization.
    const TransientBatchRunner runner(*trap_cache_, opts.transient);
    return transient_study(runner, corners, opts);
}

const mor::ReducedModel& VariabilityStudy::rom(const mor::LowRankPmorOptions& opts) {
    if (!rom_) {
        // Feed the context's cached g0-pattern symbolic into the reduction so
        // repeated ROM builds on one session (e.g. model-cache misses in the
        // serving layer) skip the redundant ordering analysis. g0's own
        // pattern — NOT the union pattern, whose ordering would change bits.
        mor::LowRankPmorOptions build_opts = opts;
        if (!build_opts.g0_factor && !build_opts.g0_symbolic)
            build_opts.g0_symbolic = &ctx_->g0_symbolic();
        set_rom(mor::lowrank_pmor(ctx_->system(), build_opts).model);
    }
    return *rom_;
}

void VariabilityStudy::set_rom(mor::ReducedModel model) {
    rom_.emplace(std::move(model));
    rom_engine_.emplace(*rom_);
}

const mor::ReducedModel& VariabilityStudy::cached_rom() const {
    check(rom_.has_value(), "VariabilityStudy: no cached ROM — call rom() or set_rom() first");
    return *rom_;
}

const mor::RomEvalEngine& VariabilityStudy::rom_engine() const {
    check(rom_.has_value(), "VariabilityStudy: no cached ROM — call rom() or set_rom() first");
    return *rom_engine_;
}

std::vector<la::ZMatrix> VariabilityStudy::sweep_rom(const std::vector<double>& p,
                                                     const std::vector<double>& freqs,
                                                     int threads) const {
    if (freqs.empty()) return {};
    std::vector<la::cplx> s_points;
    s_points.reserve(freqs.size());
    for (double f : freqs) s_points.emplace_back(0.0, util::two_pi_f(f));
    auto grid = rom_engine().transfer_grid({p}, s_points, threads);
    return std::move(grid.front());
}

PoleErrorStudy VariabilityStudy::pole_errors(const std::vector<std::vector<double>>& samples,
                                             const PoleOptions& opts, int threads) const {
    return pole_error_study(*ctx_, rom_engine(), samples, opts, threads);
}

}  // namespace varmor::analysis
