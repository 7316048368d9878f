#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "analysis/freq_sweep.h"
#include "analysis/monte_carlo.h"
#include "circuit/generators.h"
#include "la/ops.h"
#include "util/constants.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// Independent generator seeds derived from the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
    std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                      static_cast<std::uint32_t>(stream)};
    std::uint32_t out[2];
    seq.generate(out, out + 2);
    return (static_cast<std::uint64_t>(out[0]) << 32) | out[1];
}

Net rc_net(const std::string& name, int unknowns, int num_params, std::uint64_t seed) {
    circuit::RandomRcOptions o;
    o.unknowns = unknowns;
    o.num_params = num_params;
    o.seed = seed;
    return {name, circuit::random_rc_net(o)};
}

Net rlc_bus(const std::string& name, int segments_per_line, std::uint64_t seed) {
    circuit::RlcBusOptions o;
    o.segments_per_line = segments_per_line;
    o.seed = seed;
    return {name, circuit::coupled_rlc_bus(o)};
}

Net clock_tree(const std::string& name, int nodes, int depth, std::uint64_t seed) {
    circuit::ClockTreeOptions o;
    o.target_nodes = nodes;
    o.depth = depth;
    o.seed = seed;
    return {name, circuit::clock_tree(o)};
}

std::vector<la::cplx> s_points_of(const std::vector<double>& freqs) {
    std::vector<la::cplx> s;
    s.reserve(freqs.size());
    for (double f : freqs) s.emplace_back(0.0, util::two_pi_f(f));
    return s;
}

/// Delay-query time grid shared by study and serve: 200 trapezoid steps.
analysis::TransientStudyOptions delay_options() {
    analysis::TransientStudyOptions t;
    t.transient.t_stop = 4e-9;
    t.transient.dt = 2e-11;
    return t;
}

}  // namespace

mor::LowRankPmorOptions reduction_options() { return mor::LowRankPmorOptions{}; }

std::vector<Net> reduce_nets(std::uint64_t seed) {
    std::vector<Net> nets;
    nets.push_back(rc_net("rc_4k_p2", 4000, 2, derive(seed, 1)));
    nets.push_back(rc_net("rc_8k_p4", 8000, 4, derive(seed, 2)));
    nets.push_back(rc_net("rc_16k_p2", 16000, 2, derive(seed, 3)));
    nets.push_back(rc_net("rc_32k_p4", 32000, 4, derive(seed, 4)));
    nets.push_back(rlc_bus("rlc_bus_3k", 500, derive(seed, 5)));
    nets.push_back(rlc_bus("rlc_bus_12k", 2000, derive(seed, 6)));
    nets.push_back(clock_tree("clock_tree_1.5k", 1500, 7, derive(seed, 7)));
    nets.push_back(clock_tree("clock_tree_6k", 6000, 9, derive(seed, 8)));
    return nets;
}

StudyInputs study_inputs(std::uint64_t seed) {
    StudyInputs in;
    in.net = clock_tree("clock_tree_1.5k", 1500, 7, derive(seed, 11));
    analysis::MonteCarloOptions mc;
    mc.samples = 1024;
    mc.sigma = 0.1;
    mc.truncate_sigmas = 3.0;
    mc.seed = derive(seed, 12);
    in.grid_samples = analysis::sample_parameters(3, mc);
    in.pole_samples.assign(in.grid_samples.begin(), in.grid_samples.begin() + 64);
    in.corners.assign(in.grid_samples.begin(), in.grid_samples.begin() + 128);
    in.freqs = analysis::log_frequencies(1e6, 1e10, 48);
    in.s_points = s_points_of(in.freqs);
    in.transient = delay_options();
    return in;
}

std::vector<std::vector<double>> check_corners(int num_params, std::uint64_t seed) {
    util::Rng rng(derive(seed, 21));
    std::vector<std::vector<double>> corners;
    for (int c = 0; c < 4; ++c) {
        std::vector<double> p(static_cast<std::size_t>(num_params));
        for (double& x : p) x = rng.chance() ? 0.3 : -0.3;
        corners.push_back(p);
    }
    return corners;
}

std::vector<double> check_freqs() { return analysis::log_frequencies(1e6, 1e10, 6); }

double rom_error_max(const circuit::ParametricSystem& sys, const mor::ReducedModel& rom,
                     const std::vector<std::vector<double>>& corners,
                     const std::vector<double>& freqs) {
    double worst = 0.0;
    for (const std::vector<double>& p : corners) {
        const std::vector<la::ZMatrix> full = analysis::sweep_full(sys, p, freqs);
        double err = 0.0, scale = 0.0;
        for (std::size_t k = 0; k < freqs.size(); ++k) {
            const la::ZMatrix h = rom.transfer({0.0, util::two_pi_f(freqs[k])}, p);
            err = std::max(err, la::norm_max(h - full[k]));
            scale = std::max(scale, la::norm_max(full[k]));
        }
        worst = std::max(worst, err / scale);
    }
    return worst;
}

ServeInputs serve_inputs(std::uint64_t seed) {
    ServeInputs in;
    in.nets.push_back(rc_net("large_rc_1k_p4", 1000, 4, derive(seed, 31)));
    in.nets.push_back(rc_net("small_rc_800_p1", 800, 1, derive(seed, 32)));
    in.nets.push_back(clock_tree("large_clock_tree_1.5k", 1500, 7, derive(seed, 33)));
    in.nets.push_back(rc_net("small_rc_1.2k_p1", 1200, 1, derive(seed, 34)));
    const int params[kServeSessions] = {4, 1, 3, 1};
    for (int s = 0; s < kServeSessions; ++s) {
        analysis::MonteCarloOptions mc;
        mc.samples = kCornersPerSession;
        mc.seed = derive(seed, 40 + static_cast<std::uint64_t>(s));
        in.corners.push_back(analysis::sample_parameters(params[s], mc));
    }
    in.s_points = s_points_of(analysis::log_frequencies(1e6, 1e10, kSweepFrequencies));
    in.transient = delay_options();
    return in;
}

namespace {

/// Draws one request's session (Zipf, exponent 1.1), kind (85% transfer
/// sweeps, 10% poles, 5% delays) and corner.
Request draw_request(util::Rng& rng) {
    static const double kZipf[kServeSessions] = {1.0, std::pow(2.0, -1.1), std::pow(3.0, -1.1),
                                                 std::pow(4.0, -1.1)};
    double total = 0.0;
    for (double w : kZipf) total += w;
    double u = rng.uniform(0.0, total);
    Request r;
    r.session = kServeSessions - 1;
    for (int s = 0; s < kServeSessions; ++s) {
        if (u < kZipf[s]) {
            r.session = s;
            break;
        }
        u -= kZipf[s];
    }
    const double k = rng.uniform();
    r.kind = k < 0.85 ? Kind::transfer : (k < 0.95 ? Kind::poles : Kind::delay);
    r.corner = rng.below(kCornersPerSession);
    return r;
}

}  // namespace

std::vector<Request> open_loop_schedule(double rate_rps, double seconds, std::uint64_t seed) {
    util::Rng rng(derive(seed, 51));
    std::vector<Request> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate_rps;
        if (t >= seconds) break;
        Request r = draw_request(rng);
        r.t_s = t;
        out.push_back(r);
    }
    return out;
}

std::vector<Request> burst(int count, std::uint64_t seed) {
    util::Rng rng(derive(seed, 52));
    std::vector<Request> out;
    for (int i = 0; i < count; ++i) out.push_back(draw_request(rng));
    return out;
}

Backlog detect_backlog(const std::vector<double>& scheduled_s,
                       const std::vector<double>& done_s, double window_s) {
    Backlog b;
    const std::size_t n = std::min(scheduled_s.size(), done_s.size());
    for (std::size_t i = 0; i < n; ++i)
        if (scheduled_s[i] <= window_s && done_s[i] > window_s) ++b.outstanding_at_end;
    if (n < 8) return b;
    // Mean latency of the second and the last quarter of the window, by
    // send time (the first quarter still carries start-up transients). A
    // queue that keeps up holds latency flat; one that does not grows it.
    const auto quarter_mean = [&](double lo, double hi) {
        double sum = 0.0;
        long count = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (scheduled_s[i] >= lo * window_s && scheduled_s[i] < hi * window_s) {
                sum += done_s[i] - scheduled_s[i];
                ++count;
            }
        return count ? sum / static_cast<double>(count) : 0.0;
    };
    const double early = quarter_mean(0.25, 0.5);
    const double late = quarter_mean(0.75, 1.0);
    b.growing = late > 2.0 * early + 0.005;
    return b;
}

}  // namespace perfbench
