#pragma once

// Seeded input generators for the three workloads. Every input a workload
// feeds the program comes from here, as a pure function of the seed.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/transient_batch.h"
#include "circuit/netlist.h"
#include "circuit/parametric_system.h"
#include "la/dense.h"
#include "mor/lowrank_pmor.h"
#include "mor/reduced_model.h"

namespace perfbench {

using namespace varmor;

struct Net {
    std::string name;
    circuit::Netlist netlist;
};

/// The reduction every workload uses: the library's default Algorithm 1
/// options (s_order 4, param_order 4, rank 1, adjoint spaces on).
mor::LowRankPmorOptions reduction_options();

// ---------------------------------------------------------------------------
// reduce: nets from all three of the paper's families, well past its sizes.
// ---------------------------------------------------------------------------

std::vector<Net> reduce_nets(std::uint64_t seed);

// ---------------------------------------------------------------------------
// study: one clock tree, Monte-Carlo samples at sigma 0.1 truncated at 3 sigma.
// ---------------------------------------------------------------------------

struct StudyInputs {
    Net net;
    std::vector<std::vector<double>> grid_samples;   ///< transfer-grid samples
    std::vector<std::vector<double>> pole_samples;   ///< pole_errors samples
    std::vector<std::vector<double>> corners;        ///< transient corners
    std::vector<double> freqs;                       ///< grid frequencies [Hz]
    std::vector<la::cplx> s_points;                  ///< j 2 pi f of freqs
    analysis::TransientStudyOptions transient;
};

StudyInputs study_inputs(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Accuracy check: corners of the +-30% box and a few frequencies.
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> check_corners(int num_params, std::uint64_t seed);
std::vector<double> check_freqs();

/// max over corners of (max over frequencies of |H_rom - H_full|_max) /
/// (max over frequencies of |H_full|_max): the error relative to the
/// corner's peak response, with H_full from analysis::sweep_full.
double rom_error_max(const circuit::ParametricSystem& sys, const mor::ReducedModel& rom,
                     const std::vector<std::vector<double>>& corners,
                     const std::vector<double>& freqs);

/// The accuracy check: every ROM stays within 25% of its corner's peak
/// response at +-30% variation. reduce's q = 24 random RC nets read 0.05 to
/// 0.12 over seeds (the clock trees 1e-3 and below); a broken reduction
/// reads 1 or more. The error itself is a per-layer metric.
constexpr double kRomErrTolerance = 0.25;

// ---------------------------------------------------------------------------
// serve: four sessions, Zipf popularity, Poisson arrivals.
// ---------------------------------------------------------------------------

constexpr int kServeSessions = 4;
constexpr int kCornersPerSession = 64;
constexpr int kSweepFrequencies = 16;

/// Session i is "small" (direct lane) when odd, "large" (Hessenberg lane)
/// when even; popularity falls with the index (Zipf, exponent 1.1).
inline bool small_session(int session) { return session % 2 == 1; }

enum class Kind { transfer, poles, delay };

struct Request {
    double t_s = 0.0;  ///< scheduled send time from the start of the window
    int session = 0;
    Kind kind = Kind::transfer;
    int corner = 0;    ///< index into the session's corner pool
};

struct ServeInputs {
    std::vector<Net> nets;                                   ///< one per session
    std::vector<std::vector<std::vector<double>>> corners;   ///< [session][corner]
    std::vector<la::cplx> s_points;                          ///< a transfer sweep
    analysis::TransientStudyOptions transient;
};

ServeInputs serve_inputs(std::uint64_t seed);

/// Open-loop arrivals for one window: Poisson at `rate_rps` for `seconds`,
/// each request's session, kind and corner drawn independently. A pure
/// function of its arguments, so it never depends on how fast the service
/// answers.
std::vector<Request> open_loop_schedule(double rate_rps, double seconds, std::uint64_t seed);

/// A closed burst: `count` requests of the same mix, all due at t = 0.
std::vector<Request> burst(int count, std::uint64_t seed);

/// Backlog of one open-loop window, from each request's scheduled send time
/// and completion time (seconds from the window start).
struct Backlog {
    long outstanding_at_end = 0;  ///< scheduled in the window, done after it
    bool growing = false;         ///< latency rising through the window
};
Backlog detect_backlog(const std::vector<double>& scheduled_s,
                       const std::vector<double>& done_s, double window_s);

}  // namespace perfbench
