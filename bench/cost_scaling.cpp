// Cost-scaling study (section 4.2): the dominant cost of Algorithm 1 is one
// sparse factorization of G0; total cost is linear in the moment order k,
// linear in the number of parameters np, and ~linear in circuit size n.
// Measures wall-clock reduction time along each axis and checks the growth
// ratios.

#include <cmath>

#include "analysis/freq_sweep.h"
#include "bench_util.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "la/ops.h"
#include "mor/lowrank_pmor.h"
#include "sparse/assemble.h"
#include "sparse/splu.h"
#include "util/constants.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace varmor;

namespace {

double time_lowrank(const circuit::ParametricSystem& sys, int s_order, int param_order,
                    int rank = 1) {
    mor::LowRankPmorOptions opts;
    opts.s_order = s_order;
    opts.param_order = param_order;
    opts.rank = rank;
    // Median of three runs to steady the clock.
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
        util::Timer t;
        const auto r = mor::lowrank_pmor(sys, opts);
        (void)r;
        best = std::min(best, t.milliseconds());
    }
    return best;
}

}  // namespace

int main() {
    bench::banner("cost_scaling: reduction cost vs n, k and np",
                  "Li et al., DATE'05, section 4.2 cost claims");
    bench::ShapeChecks checks;

    // --- scaling in circuit size n ---
    util::Table tn({"n (unknowns)", "reduce [ms]", "ms per 1k unknowns"});
    std::vector<double> per_unknown;
    for (int n : {500, 1000, 2000, 4000}) {
        circuit::RandomRcOptions o;
        o.unknowns = n;
        circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(o));
        const double ms = time_lowrank(sys, 4, 2);
        per_unknown.push_back(ms / n * 1000.0);
        tn.add_row({std::to_string(n), util::Table::num(ms, 4),
                    util::Table::num(ms / n * 1000.0, 4)});
    }
    tn.print(std::cout);
    std::printf("\n");
    // Near-linear: cost per unknown must not grow much with n.
    checks.expect(per_unknown.back() < 4.0 * per_unknown.front(),
                  "cost grows ~linearly in circuit size (per-unknown cost bounded)");

    // --- scaling in the moment order k ---
    circuit::RandomRcOptions o;
    o.unknowns = 1500;
    circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(o));
    util::Table tk({"order k", "reduce [ms]"});
    std::vector<double> times_k;
    for (int k : {2, 4, 8}) {
        const double ms = time_lowrank(sys, k, k);
        times_k.push_back(ms);
        tk.add_row({std::to_string(k), util::Table::num(ms, 4)});
    }
    tk.print(std::cout);
    std::printf("\n");
    checks.expect(times_k[2] < 16.0 * times_k[0] + 5.0,
                  "cost is polynomial-mild (≈linear solve count) in k, not "
                  "combinatorial");

    // --- scaling in the parameter count np ---
    // Wall time includes the (cheap but quadratic) Gram-Schmidt and
    // projection terms; the paper's section 4.2 statement is about the
    // DOMINANT cost, i.e. the factorization count (always 1) and the number
    // of triangular solves, which must grow linearly in np.
    util::Table tp({"np", "reduce [ms]", "factorizations", "sparse solves"});
    std::vector<double> times_p;
    std::vector<long> solves_p;
    for (int np : {1, 2, 4, 8}) {
        circuit::RandomRcOptions on;
        on.unknowns = 1500;
        on.num_params = np;
        on.sens_span = 0.3 / np;  // keep total variation bounded
        circuit::ParametricSystem s = assemble_mna(circuit::random_rc_net(on));
        const double ms = time_lowrank(s, 4, 2);
        mor::LowRankPmorOptions opts;
        opts.s_order = 4;
        opts.param_order = 2;
        const mor::LowRankPmorResult r = mor::lowrank_pmor(s, opts);
        times_p.push_back(ms);
        solves_p.push_back(r.sparse_solves);
        tp.add_row({std::to_string(np), util::Table::num(ms, 4),
                    std::to_string(r.factorizations), std::to_string(r.sparse_solves)});
    }
    tp.print(std::cout);
    std::printf("\n");
    checks.expect(static_cast<double>(solves_p[3]) <
                      10.0 * static_cast<double>(solves_p[0]),
                  "dominant cost (sparse solves) grows ~linearly in the number "
                  "of parameters; factorization count stays 1");

    std::printf("(the multi-point alternative would pay 3^np factorizations: "
                "%d at np = 8)\n\n", 6561);

    // --- batched solve engine: frequency sweep ---
    // Baseline is the pre-batching evaluation path: assemble the pencil and
    // run a full symbolic + numeric factorization at every point, one
    // thread. The engine pays one symbolic analysis and refactorizes, with
    // the points fanned across the thread pool.
    {
        circuit::RandomRcOptions on;
        on.unknowns = 2000;
        circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(on));
        const std::vector<double> p(static_cast<std::size_t>(sys.num_params()), 0.05);
        const auto freqs = analysis::log_frequencies(1e6, 1e10, 60);

        const sparse::Csc g = sys.g_at(p);
        const sparse::Csc c = sys.c_at(p);
        const la::ZMatrix bz = la::to_complex(sys.b);
        const la::ZMatrix lzt = la::transpose(la::to_complex(sys.l));

        util::Timer t;
        std::vector<la::ZMatrix> base;
        base.reserve(freqs.size());
        for (double f : freqs) {
            const la::cplx s(0.0, util::two_pi_f(f));
            const sparse::ZSparseLu lu(sparse::pencil(g, c, s));
            base.push_back(la::matmul(lzt, lu.solve(bz)));
        }
        const double ms_base = t.milliseconds();

        t.reset();
        const auto serial = analysis::sweep_full(sys, p, freqs, 1);
        const double ms_serial = t.milliseconds();

        t.reset();
        const auto batched = analysis::sweep_full(sys, p, freqs);
        const double ms_batched = t.milliseconds();

        double dev_base = 0.0, dev_serial = 0.0;
        for (std::size_t i = 0; i < freqs.size(); ++i) {
            dev_base = std::max(dev_base, la::norm_max(batched[i] - base[i]) /
                                              (1.0 + la::norm_max(base[i])));
            dev_serial = std::max(dev_serial, la::norm_max(batched[i] - serial[i]));
        }

        util::Table ts({"sweep path (60 pts, n=2000)", "time [ms]", "speedup"});
        ts.add_row({"per-point re-analysis (pre-batching)", util::Table::num(ms_base, 4), "1.0"});
        ts.add_row({"refactorize, 1 thread", util::Table::num(ms_serial, 4),
                    util::Table::num(ms_base / ms_serial, 3)});
        ts.add_row({"refactorize, " + std::to_string(util::ThreadPool::default_threads()) +
                        " threads", util::Table::num(ms_batched, 4),
                    util::Table::num(ms_base / ms_batched, 3)});
        ts.print(std::cout);
        std::printf("\n");
        checks.expect(ms_base / ms_batched >= 2.0,
                      "batched sweep is >= 2x faster than per-point re-analysis");
        checks.expect(dev_serial == 0.0,
                      "parallel sweep is bit-identical to the serial sweep");
        checks.expect(dev_base < 1e-8,
                      "batched sweep matches the re-analysis path numerically");
    }

    // --- batched solve engine: Monte-Carlo factorization study ---
    // Per-sample work: assemble G(p), factor, one solve — the kernel under
    // every MC pole/delay study. Baseline re-derives the sparsity pattern
    // (chained sparse adds) and re-runs the full symbolic analysis per
    // sample, single-threaded.
    {
        circuit::RandomRcOptions on;
        on.unknowns = 1500;
        on.num_params = 4;
        on.sens_span = 0.075;
        circuit::ParametricSystem sys = assemble_mna(circuit::random_rc_net(on));
        util::Rng rng(7);
        std::vector<std::vector<double>> samples;
        for (int k = 0; k < 120; ++k) samples.push_back(rng.uniform_vector(4, -0.2, 0.2));
        la::Vector rhs(sys.size());
        for (int i = 0; i < sys.size(); ++i) rhs[i] = 1.0 + 0.001 * i;

        util::Timer t;
        std::vector<double> base_norm(samples.size());
        for (std::size_t k = 0; k < samples.size(); ++k) {
            const sparse::SparseLu lu(sys.g_at(samples[k]));
            base_norm[k] = la::norm2(lu.solve(rhs));
        }
        const double ms_base = t.milliseconds();

        const circuit::ParametricStamper stamper(sys);
        const sparse::SpluSymbolic symbolic =
            sparse::SpluSymbolic::analyze(stamper.g_skeleton());
        const int ns = static_cast<int>(samples.size());
        auto run_engine = [&](std::vector<double>& out, int threads) {
            util::ThreadPool::global().parallel_chunks(0, ns, [&](int, int cb, int ce) {
                sparse::Csc gp = stamper.g_skeleton();
                sparse::SpluWorkspace ws;
                for (int k = cb; k < ce; ++k) {
                    stamper.g_at(samples[static_cast<std::size_t>(k)], gp);
                    sparse::SparseLu::Options lo;
                    lo.symbolic = &symbolic;
                    const sparse::SparseLu lu(gp, lo, ws);
                    out[static_cast<std::size_t>(k)] = la::norm2(lu.solve(rhs));
                }
            }, threads);
        };

        std::vector<double> serial_norm(samples.size());
        t.reset();
        run_engine(serial_norm, 1);
        const double ms_serial = t.milliseconds();

        std::vector<double> mc_norm(samples.size());
        t.reset();
        run_engine(mc_norm, 0);
        const double ms_batched = t.milliseconds();

        double dev_base = 0.0, dev_serial = 0.0;
        for (std::size_t k = 0; k < samples.size(); ++k) {
            dev_base = std::max(dev_base,
                                std::abs(mc_norm[k] - base_norm[k]) / (1.0 + base_norm[k]));
            dev_serial = std::max(dev_serial, std::abs(mc_norm[k] - serial_norm[k]));
        }

        util::Table tm({"MC path (120 samples, n=1500)", "time [ms]", "speedup"});
        tm.add_row({"re-analysis per sample (pre-batching)", util::Table::num(ms_base, 4), "1.0"});
        tm.add_row({"shared pattern+symbolic, 1 thread", util::Table::num(ms_serial, 4),
                    util::Table::num(ms_base / ms_serial, 3)});
        tm.add_row({"shared pattern+symbolic, " +
                        std::to_string(util::ThreadPool::default_threads()) + " threads",
                    util::Table::num(ms_batched, 4),
                    util::Table::num(ms_base / ms_batched, 3)});
        tm.print(std::cout);
        std::printf("\n");
        checks.expect(ms_base / ms_batched >= 2.0,
                      "batched MC study is >= 2x faster than per-sample re-analysis");
        checks.expect(dev_serial == 0.0,
                      "parallel MC study is bit-identical to the serial run");
        checks.expect(dev_base < 1e-8,
                      "batched MC study matches the re-analysis path numerically");
    }

    return checks.exit_code();
}
