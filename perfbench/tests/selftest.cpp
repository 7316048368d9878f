// The benchmark's own tests: schedule determinism, the percentile reporter,
// backlog detection and seeded input generation. Exit code 0 = all pass.
//
//   perfbench_selftest

#include <cmath>
#include <cstdio>

#include "circuit/mna.h"
#include "common.h"
#include "inputs.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++g_failures;
}

bool same_schedule(const std::vector<Request>& a, const std::vector<Request>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].t_s != b[i].t_s || a[i].session != b[i].session || a[i].kind != b[i].kind ||
            a[i].corner != b[i].corner)
            return false;
    return true;
}

bool same_system(const circuit::ParametricSystem& a, const circuit::ParametricSystem& b) {
    const auto same_csc = [](const sparse::Csc& x, const sparse::Csc& y) {
        return x.rows() == y.rows() && same_bits(x.col_ptr(), y.col_ptr()) &&
               same_bits(x.row_idx(), y.row_idx()) && same_bits(x.values(), y.values());
    };
    if (!same_csc(a.g0, b.g0) || !same_csc(a.c0, b.c0) || !same_bits(a.b, b.b) ||
        a.dg.size() != b.dg.size())
        return false;
    for (std::size_t i = 0; i < a.dg.size(); ++i)
        if (!same_csc(a.dg[i], b.dg[i]) || !same_csc(a.dc[i], b.dc[i])) return false;
    return true;
}

void test_schedule() {
    const auto a = open_loop_schedule(800.0, 3.0, 7);
    const auto b = open_loop_schedule(800.0, 3.0, 7);
    expect(same_schedule(a, b), "open-loop schedule is identical for the same seed");
    expect(!same_schedule(a, open_loop_schedule(800.0, 3.0, 8)),
           "open-loop schedule differs for another seed");

    // The schedule is fixed before any request is sent: generating it again
    // after a stall (standing in for a slow service) changes nothing.
    std::vector<Request> later;
    {
        util::Timer stall;
        while (stall.milliseconds() < 20.0) {
        }
        later = open_loop_schedule(800.0, 3.0, 7);
    }
    expect(same_schedule(a, later), "open-loop schedule does not depend on elapsed time");

    // Poisson at the offered rate: count within 5 sigma, times increasing.
    const double expected = 800.0 * 3.0;
    expect(std::abs(static_cast<double>(a.size()) - expected) < 5.0 * std::sqrt(expected),
           "open-loop schedule offers the requested rate");
    bool increasing = true, in_window = true;
    int transfers = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i && a[i].t_s <= a[i - 1].t_s) increasing = false;
        if (a[i].t_s < 0.0 || a[i].t_s >= 3.0) in_window = false;
        if (a[i].kind == Kind::transfer) ++transfers;
    }
    expect(increasing && in_window, "send times increase inside the window");
    const double share = static_cast<double>(transfers) / static_cast<double>(a.size());
    expect(share > 0.8 && share < 0.9, "about 85% of requests are transfer sweeps");
    int first = 0;
    for (const Request& r : a) first += r.session == 0;
    expect(first > static_cast<int>(a.size()) / 3, "session popularity is skewed toward session 0");
    expect(same_schedule(burst(100, 3), burst(100, 3)), "bursts are identical for the same seed");
}

void test_percentiles() {
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
    Tail t = tail(v);
    expect(t.percentile == 99.0 && t.samples == 1000, "1000 samples report p99 (10 beyond it)");
    expect(std::abs(t.p50 - 500.5) < 1e-9, "median of 1..1000 is 500.5");
    expect(std::abs(t.value - quantile(v, 0.99)) < 1e-12, "the tail value is that quantile");
    v.pop_back();
    t = tail(v);
    expect(t.percentile == 95.0 && t.samples == 999, "999 samples fall back to p95");
    v.resize(100);
    expect(tail(v).percentile == 90.0, "100 samples report p90");
    v.resize(10);
    t = tail(v);
    expect(t.percentile == 0.0 && t.samples == 10, "10 samples have no reportable tail");
    expect(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0, "quantile sorts its input");

    // 40 chunks of 100 samples; chunks 3..37 ran on a slowed host (1.8x).
    std::vector<double> run;
    for (int c = 0; c < 40; ++c)
        for (int i = 0; i < 100; ++i) run.push_back((c >= 3 && c < 38 ? 1.8 : 1.0) * (1.0 + i % 10 * 0.01));
    run.push_back(100.0);  // a partial last chunk is left out
    std::vector<double> calm = calm_samples(run, 100);
    expect(calm.size() == 200, "the calm 5% of 40 chunks is 2 chunks");
    expect(std::abs(quantile(calm, 0.5) - 1.045) < 1e-9,
           "a run slowed for 87% of its chunks reports the unslowed median");
    expect(std::abs(quantile(calm, 0.9) - 1.081) < 1e-9, "and the unslowed p90");
    for (double& x : run) x *= 1.2;
    expect(std::abs(quantile(calm_samples(run, 100), 0.5) - 1.2 * 1.045) < 1e-9,
           "a program 20% slower in every chunk reports 20% more");
    expect(calm_samples({3.0, 1.0, 2.0}, 100).size() == 3, "too few samples are kept as they are");
}

void test_backlog() {
    // A server that keeps up: constant 2 ms latency.
    std::vector<double> due, done;
    for (int i = 0; i < 1000; ++i) {
        due.push_back(i * 0.001);
        done.push_back(i * 0.001 + 0.002);
    }
    Backlog b = detect_backlog(due, done, 1.0);
    expect(!b.growing && b.outstanding_at_end <= 2, "steady latency is no backlog");

    // A server slower than the offered rate: a FIFO queue that grows.
    done.clear();
    double free_at = 0.0;
    for (double d : due) {
        free_at = std::max(free_at, d) + 0.0015;
        done.push_back(free_at);
    }
    b = detect_backlog(due, done, 1.0);
    expect(b.growing, "a queue served slower than it fills is a growing backlog");
    expect(b.outstanding_at_end > 100, "its outstanding requests at the end are counted");
}

void test_generators() {
    const auto a = reduce_nets(11), b = reduce_nets(11), c = reduce_nets(12);
    bool same = a.size() == b.size() && a.size() == 8, differs = false;
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        const auto sa = circuit::assemble_mna(a[i].netlist);
        same = same_system(sa, circuit::assemble_mna(b[i].netlist));
        differs = differs || !same_system(sa, circuit::assemble_mna(c[i].netlist));
    }
    expect(same, "reduce nets are identical for the same seed");
    expect(differs, "reduce nets differ for another seed");

    const StudyInputs s1 = study_inputs(11), s2 = study_inputs(11);
    bool study_same = same_system(circuit::assemble_mna(s1.net.netlist),
                                  circuit::assemble_mna(s2.net.netlist)) &&
                      s1.grid_samples == s2.grid_samples && s1.freqs == s2.freqs;
    expect(study_same, "study inputs are identical for the same seed");
    expect(study_inputs(12).grid_samples != s1.grid_samples, "study samples differ for another seed");
    bool bounded = true;
    for (const auto& p : s1.grid_samples)
        for (double x : p) bounded = bounded && std::abs(x) <= 0.3 + 1e-12;
    expect(bounded, "study samples stay within 3 sigma (+-30%)");

    const ServeInputs v1 = serve_inputs(11), v2 = serve_inputs(11);
    bool serve_same = v1.corners == v2.corners && v1.nets.size() == 4;
    for (std::size_t i = 0; serve_same && i < v1.nets.size(); ++i)
        serve_same = same_system(circuit::assemble_mna(v1.nets[i].netlist),
                                 circuit::assemble_mna(v2.nets[i].netlist));
    expect(serve_same, "serve inputs are identical for the same seed");
    expect(serve_inputs(12).corners != v1.corners, "serve corners differ for another seed");
}

}  // namespace

int main() {
    test_schedule();
    test_percentiles();
    test_backlog();
    test_generators();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS", g_failures);
    return g_failures ? 1 : 0;
}
