// serve: open-loop traffic from independent users into one
// service::StudyService over four warm sessions (two small ROMs on the
// direct lane, two large ROMs on the Hessenberg lane). One generator thread
// sends requests on a Poisson schedule fixed in advance; one collector per
// session class waits for the answers, checks each bitwise against the
// serve-alone reference, and timestamps its completion. A request's latency
// runs from its scheduled send time to its last result.

#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "circuit/mna.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "service/study_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Requests in one closed burst (the capacity pass).
constexpr int kBurstRequests = 2000;
constexpr int kBursts = 24;
/// Reference-rate requests per chunk of calm_samples (about 50 ms).
constexpr std::size_t kLatencyChunk = 100;
/// The untraced run alternates kBursts / kSegments bursts with a reference-
/// rate segment, kSegments times.
constexpr int kSegments = 4;
/// The set-up warm-up burst: large enough to grow the result slabs and
/// queues to their burst high-water mark before anything is timed.
constexpr int kWarmupRequests = 3000;
/// max_rps: the p99 latency limit, about 10x the 2 ms flush window.
constexpr double kLatencyLimitMs = 25.0;

/// Serve-alone answers for every (session, corner), computed before timing.
struct Expected {
    std::vector<std::vector<std::vector<la::ZMatrix>>> transfer;  ///< [s][c][freq]
    std::vector<std::vector<std::vector<la::cplx>>> poles;        ///< [s][c]
    std::vector<std::vector<service::DelayResult>> delay;         ///< [s][c]
};

struct Served {
    std::vector<circuit::ParametricSystem> systems;
    std::unique_ptr<service::ModelCache> cache;
    std::unique_ptr<service::StudyService> service;
    std::vector<service::StudySession*> sessions;
};

std::unique_ptr<Served> open_service(const ServeInputs& in) {
    auto sv = std::make_unique<Served>();
    for (const Net& net : in.nets) sv->systems.push_back(circuit::assemble_mna(net.netlist));
    sv->cache = std::make_unique<service::ModelCache>();
    service::StudyServiceOptions opts;
    opts.reduction = reduction_options();
    opts.transient = in.transient;
    // Admission control on, sized so a closed burst is never shed.
    opts.batcher.max_pending = 1 << 16;
    sv->service = std::make_unique<service::StudyService>(*sv->cache, opts);
    for (const circuit::ParametricSystem& sys : sv->systems)
        sv->sessions.push_back(&sv->service->open(sys));
    return sv;
}

Expected serve_alone(const Served& sv, const ServeInputs& in) {
    Expected ex;
    for (int s = 0; s < kServeSessions; ++s) {
        const service::StudySession& session = *sv.sessions[static_cast<std::size_t>(s)];
        ex.transfer.emplace_back();
        ex.poles.emplace_back();
        ex.delay.emplace_back();
        for (const std::vector<double>& p : in.corners[static_cast<std::size_t>(s)]) {
            std::vector<la::ZMatrix> sweep;
            for (const la::cplx& sp : in.s_points) sweep.push_back(session.transfer_now(p, sp));
            ex.transfer.back().push_back(std::move(sweep));
            ex.poles.back().push_back(session.poles_now(p));
            ex.delay.back().push_back(session.delay_now(p));
        }
    }
    return ex;
}

bool same_delay(const service::DelayResult& a, const service::DelayResult& b) {
    if (a.delay.has_value() != b.delay.has_value()) return false;
    if (a.delay && std::memcmp(&*a.delay, &*b.delay, sizeof(double)) != 0) return false;
    return std::memcmp(&a.level, &b.level, sizeof(double)) == 0;
}

/// What the window learned about one request.
struct Outcome {
    std::int64_t due_ns = 0;
    std::int64_t done_ns = 0;
    bool ok = false;
};

/// One in-flight request: its tickets, held by the collector of its class.
struct Pending {
    std::size_t index = 0;
    std::vector<service::Future<la::ZMatrix>> transfers;
    service::Future<std::vector<la::cplx>> poles;
    service::Future<service::DelayResult> delay;
};

/// A FIFO of in-flight requests drained by one collector thread.
class Collector {
public:
    Collector(const std::vector<Request>& reqs, const Expected& ex, std::vector<Outcome>& out)
        : reqs_(reqs), ex_(ex), out_(out), thread_([this] { loop(); }) {}
    ~Collector() { close(); }
    Collector(const Collector&) = delete;
    Collector& operator=(const Collector&) = delete;

    void push(Pending p) EXCLUDES(mutex_) {
        {
            util::MutexLock lock(mutex_);
            queue_.push_back(std::move(p));
        }
        ready_.notify_one();
    }

    /// Waits for every pushed request, then joins the thread.
    void close() EXCLUDES(mutex_) {
        {
            util::MutexLock lock(mutex_);
            closed_ = true;
        }
        ready_.notify_one();
        if (thread_.joinable()) thread_.join();
    }

private:
    void loop() EXCLUDES(mutex_) {
        for (;;) {
            Pending p;
            {
                util::MutexLock lock(mutex_);
                while (!closed_ && queue_.empty()) ready_.wait(mutex_);
                if (queue_.empty()) return;
                p = std::move(queue_.front());
                queue_.pop_front();
            }
            collect(p);
        }
    }

    void collect(Pending& p) {
        const Request& r = reqs_[p.index];
        const auto s = static_cast<std::size_t>(r.session);
        const auto c = static_cast<std::size_t>(r.corner);
        bool ok = true;
        try {
            for (std::size_t k = 0; k < p.transfers.size(); ++k)
                ok = same_bits(p.transfers[k].get(), ex_.transfer[s][c][k]) && ok;
            if (p.poles.valid()) ok = same_bits(p.poles.get(), ex_.poles[s][c]) && ok;
            if (p.delay.valid()) ok = same_delay(p.delay.get(), ex_.delay[s][c]) && ok;
        } catch (const std::exception&) {
            // Shed, expired or failed: counted, never retried.
            ok = false;
        }
        Outcome& o = out_[p.index];
        o.done_ns = util::Timer::now_ns();
        o.ok = ok;
        Tracer::global().record("serve.request", o.due_ns, o.done_ns, p.index + 1);
    }

    const std::vector<Request>& reqs_;
    const Expected& ex_;
    std::vector<Outcome>& out_;
    util::Mutex mutex_;
    util::CondVar ready_;
    std::deque<Pending> queue_ GUARDED_BY(mutex_);
    bool closed_ GUARDED_BY(mutex_) = false;
    std::thread thread_;  ///< last: starts after the members it uses
};

/// Latencies and health of one window.
struct Window {
    std::vector<double> latency_ms;
    std::vector<double> small_ms, large_ms;
    std::vector<double> lag_ms;     ///< generator lateness against the schedule
    std::vector<double> submit_us;  ///< time inside one StudySession submit call
    long failed = 0;
    Backlog backlog;
    double drain_s = 0.0;           ///< first due time to last completion
};

/// Sends `reqs` (open loop on their schedule, or all at once when
/// `open_loop` is false) and waits for every answer.
Window run_window(Served& sv, const ServeInputs& in, const Expected& ex,
                  const std::vector<Request>& reqs, bool open_loop, double window_s) {
    std::vector<Outcome> out(reqs.size());
    Window w;
    const std::int64_t t0 = util::Timer::now_ns() + 2'000'000;
    {
        // Collector 0: large sessions' sweeps and poles; 1: small sessions';
        // 2: delays, whose full-system transient is slower than either.
        Collector large(reqs, ex, out), small(reqs, ex, out), delays(reqs, ex, out);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Request& r = reqs[i];
            const std::int64_t due =
                t0 + (open_loop ? static_cast<std::int64_t>(r.t_s * 1e9) : 0);
            if (open_loop) {
                while (util::Timer::now_ns() < due)
                    std::this_thread::sleep_for(std::chrono::nanoseconds(due - util::Timer::now_ns()));
            }
            out[i].due_ns = due;
            w.lag_ms.push_back(1e-6 * static_cast<double>(util::Timer::now_ns() - due));
            service::StudySession& session = *sv.sessions[static_cast<std::size_t>(r.session)];
            const std::vector<double>& p =
                in.corners[static_cast<std::size_t>(r.session)][static_cast<std::size_t>(r.corner)];
            Pending pending;
            pending.index = i;
            {
                ScopedSpan span("service.submit", i + 1);
                const std::int64_t begin = util::Timer::now_ns();
                switch (r.kind) {
                    case Kind::transfer:
                        pending.transfers.reserve(in.s_points.size());
                        for (const la::cplx& s : in.s_points)
                            pending.transfers.push_back(session.transfer(p, s));
                        break;
                    case Kind::poles: pending.poles = session.poles(p); break;
                    case Kind::delay: pending.delay = session.delay(p); break;
                }
                w.submit_us.push_back(1e-3 * static_cast<double>(util::Timer::now_ns() - begin));
            }
            Collector& c = r.kind == Kind::delay ? delays : small_session(r.session) ? small : large;
            c.push(std::move(pending));
        }
    }
    std::vector<double> due_s, done_s;
    std::int64_t last = t0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const double ms = 1e-6 * static_cast<double>(out[i].done_ns - out[i].due_ns);
        w.latency_ms.push_back(ms);
        (small_session(reqs[i].session) ? w.small_ms : w.large_ms).push_back(ms);
        if (!out[i].ok) ++w.failed;
        due_s.push_back(1e-9 * static_cast<double>(out[i].due_ns - t0));
        done_s.push_back(1e-9 * static_cast<double>(out[i].done_ns - t0));
        last = std::max(last, out[i].done_ns);
    }
    w.backlog = detect_backlog(due_s, done_s, window_s);
    w.drain_s = 1e-9 * static_cast<double>(last - t0);
    return w;
}

/// An offered rate meets the limit: no failure, p99 within the limit and
/// no growing backlog.
bool meets_limit(const Window& w) {
    return w.failed == 0 && quantile(w.latency_ms, 0.99) <= kLatencyLimitMs && !w.backlog.growing;
}

std::uint64_t window_seed(std::uint64_t seed, int window) {
    return seed * 1000003u + static_cast<std::uint64_t>(window);
}

}  // namespace

void run_serve(const Args& args, Report& report, Metrics& out) {
    Tracer& tracer = Tracer::global();
    const bool traced = tracer.on();
    tracer.enable(false);
    const Args::Rates& rates = args.rates;
    if (rates.light <= 0.0 || rates.ref <= 0.0 || rates.heavy <= 0.0)
        throw Error("serve: --rates light,ref,heavy is required");

    // ---- set-up: inputs, ROM builds, session opens and a warm-up burst. ----
    ServeInputs in;
    std::unique_ptr<Served> sv;
    std::vector<double> setup_s;
    Expected warm;
    for (int rep = 0; rep < kSetups; ++rep) {
        sv.reset();
        util::Timer t;
        in = serve_inputs(args.seed);
        sv = open_service(in);
        const double open_s = t.seconds();
        if (rep == 0) {
            // The reference answers are checks, not set-up; the inputs repeat
            // exactly, so one computation serves every set-up.
            util::Timer reference;
            warm = serve_alone(*sv, in);
            std::printf("serve: serve-alone reference answers in %.2f s\n", reference.seconds());
        }
        t.reset();
        run_window(*sv, in, warm, burst(kWarmupRequests, window_seed(args.seed, 999)), false, 0.0);
        setup_s.push_back(open_s + t.seconds());
    }
    const Expected& ex = warm;
    for (int s = 0; s < kServeSessions; ++s)
        std::printf("serve: session %d %-22s n=%-5d q=%d\n", s,
                    in.nets[static_cast<std::size_t>(s)].name.c_str(),
                    sv->systems[static_cast<std::size_t>(s)].size(),
                    sv->sessions[static_cast<std::size_t>(s)]->study().cached_rom().size());
    bool lanes_ok = true;
    for (int s = 0; s < kServeSessions; ++s)
        lanes_ok = lanes_ok && (sv->sessions[static_cast<std::size_t>(s)]->study().cached_rom().size() <
                                mor::RomEvalEngine::kDirectPathOrder) == small_session(s);
    if (!lanes_ok) report.fail_check("session ROM orders do not match their lane classes");
    double err_max = 0.0;
    for (int s = 0; s < kServeSessions; ++s) {
        const circuit::ParametricSystem& sys = sv->systems[static_cast<std::size_t>(s)];
        err_max = std::max(err_max, rom_error_max(sys, sv->sessions[static_cast<std::size_t>(s)]->study().cached_rom(),
                                                  check_corners(sys.num_params(), args.seed),
                                                  check_freqs()));
    }
    report.op(err_max <= kRomErrTolerance);
    report.context("rom_err_max", err_max);

    int window = 0;
    const auto count = [&](const Window& w) { report.ops(static_cast<long>(w.latency_ms.size()), w.failed); };

    // ---- timed: closed bursts (capacity) interleaved with open-loop
    // segments at the reference rate, so both sample the whole run. --------
    util::Timer timed;
    std::vector<double> drain_s;
    const auto bursts = [&](int n) {
        for (int b = 0; b < n; ++b) {
            const Window w = run_window(*sv, in, ex, burst(kBurstRequests, window_seed(args.seed, window++)),
                                        false, 0.0);
            count(w);
            drain_s.push_back(w.drain_s);
        }
    };
    report.context("serve.rate_light_rps", rates.light);
    report.context("serve.rate_ref_rps", rates.ref);
    report.context("serve.rate_heavy_rps", rates.heavy);

    if (!traced) {
        std::vector<double> latency_ms, lag_ms;
        long backlog = 0;
        for (int seg = 0; seg < kSegments; ++seg) {
            bursts(kBursts / kSegments);
            const double seg_s = std::max(0.5, (args.seconds - timed.seconds()) / (kSegments - seg));
            const Window w = run_window(*sv, in, ex, open_loop_schedule(rates.ref, seg_s, window_seed(args.seed, window++)),
                                        true, seg_s);
            count(w);
            latency_ms.insert(latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
            lag_ms.insert(lag_ms.end(), w.lag_ms.begin(), w.lag_ms.end());
            backlog = std::max(backlog, w.backlog.outstanding_at_end);
            if (w.backlog.growing) std::printf("serve: backlog grew at the reference rate\n");
        }
        const Tail t = tail(latency_ms);
        out["setup_s"] = median(setup_s);
        // The burst drain runs on every core: its plain median. A request's
        // latency waits behind the requests before it, so a slowed stretch
        // of the host lifts whole chunks of the schedule: calm samples.
        const std::vector<double> calm = calm_samples(latency_ms, kLatencyChunk);
        out["pass_s"] = median(drain_s);
        out["p50_ms"] = quantile(calm, 0.5);
        out["p90_ms"] = quantile(calm, 0.9);
        report.context("calm_requests", static_cast<double>(calm.size()));
        report.context("p50_ms_all", t.p50);
        report.context("p99_ms_all", quantile(latency_ms, 0.99));
        report.context("serve.capacity_rps", kBurstRequests / median(drain_s));
        report.context("serve.ref_requests", static_cast<double>(t.samples));
        report.context("serve.ref_tail_percentile", t.percentile);
        report.context("serve.ref_backlog", static_cast<double>(backlog));
        report.context("serve.ref_gen_lag_ms_p99", quantile(lag_ms, 0.99));
        return;
    }
    bursts(kBursts);
    const double capacity_rps = kBurstRequests / median(drain_s);

    // ---- traced: reference rate traced and untraced, the other two rates,
    // and the max_rps search. -----------------------------------------------
    const double ref_s = std::max(2.0, args.seconds / 4);
    const obs::Snapshot before = sv->service->telemetry();
    obs::Registry::global().reset();
    tracer.enable(true);
    const Window ref = run_window(*sv, in, ex, open_loop_schedule(rates.ref, ref_s, window_seed(args.seed, window++)),
                                  true, ref_s);
    tracer.enable(false);
    count(ref);
    const obs::Snapshot after = sv->service->telemetry();
    const Window ref_plain = run_window(*sv, in, ex, open_loop_schedule(rates.ref, ref_s, window_seed(args.seed, window++)),
                                        true, ref_s);
    count(ref_plain);
    const double side_s = std::max(1.5, args.seconds / 6);
    const Window light = run_window(*sv, in, ex, open_loop_schedule(rates.light, side_s, window_seed(args.seed, window++)),
                                    true, side_s);
    const Window heavy = run_window(*sv, in, ex, open_loop_schedule(rates.heavy, side_s, window_seed(args.seed, window++)),
                                    true, side_s);
    count(light);
    count(heavy);

    // max_rps: climb from the reference rate until the limit breaks, then
    // bisect to a 4% resolution.
    const double probe_s = 2.0;
    const auto probe = [&](double rate) {
        const Window w = run_window(*sv, in, ex, open_loop_schedule(rate, probe_s, window_seed(args.seed, window++)),
                                    true, probe_s);
        std::printf("serve: max_rps probe %.0f rps: p99 %.2f ms, backlog %ld%s, %ld failed\n", rate,
                    quantile(w.latency_ms, 0.99), w.backlog.outstanding_at_end,
                    w.backlog.growing ? " growing" : "", w.failed);
        return meets_limit(w);
    };
    double lo = 0.0, hi = rates.ref;
    for (int step = 0; step < 8 && probe(hi); ++step) {
        lo = hi;
        hi *= 1.25;
    }
    if (lo == 0.0) {
        hi = rates.ref;
        lo = rates.ref / 4;
    }
    while (hi / lo > 1.04 && lo > 0.0) {
        const double mid = std::sqrt(lo * hi);
        (probe(mid) ? lo : hi) = mid;
    }

    const auto diff = [&](const char* name) {
        return static_cast<double>(after.counter(name) - before.counter(name));
    };
    const auto hist = [&](const char* name) {
        const auto it = after.histograms.find(name);
        return it == after.histograms.end() ? obs::HistogramSnapshot{} : it->second;
    };
    const obs::HistogramSnapshot qw = hist("query.queue_wait_ns"), st = hist("query.stamp_ns"),
                                 so = hist("query.solve_ns"), fu = hist("query.fulfil_ns");
    const double stage_mean_ms = (qw.mean() + st.mean() + so.mean() + fu.mean()) / 1e6;
    const double mean_latency = mean(ref.latency_ms);

    out["service.submit_us.p50"] = median(ref.submit_us);
    out["service.submit_us.p99"] = quantile(ref.submit_us, 0.99);
    out["query.queue_wait_ms.p50"] = qw.p50() / 1e6;
    out["query.queue_wait_ms.p99"] = qw.p99() / 1e6;
    out["query.stamp_ms.p50"] = st.p50() / 1e6;
    out["query.stamp_ms.p99"] = st.p99() / 1e6;
    out["query.solve_ms.p50"] = so.p50() / 1e6;
    out["query.solve_ms.p99"] = so.p99() / 1e6;
    out["query.fulfil_ms.p50"] = fu.p50() / 1e6;
    out["query.fulfil_ms.p99"] = fu.p99() / 1e6;
    out["serve.small.p99_ms"] = quantile(ref.small_ms, 0.99);
    out["serve.large.p99_ms"] = quantile(ref.large_ms, 0.99);
    out["serve.residual_pct"] = 100.0 * (mean_latency - stage_mean_ms) / mean_latency;
    const double groups = diff("batcher.transfer_groups"), batches = diff("batcher.batches");
    out["batcher.coalesce"] = groups > 0 ? diff("batcher.transfer_queries") / groups : 0.0;
    out["batcher.batch_mean"] = batches > 0 ? diff("batcher.queries") / batches : 0.0;
    out["batcher.shed"] = static_cast<double>(after.counter("batcher.shed"));
    out["batcher.expired"] = static_cast<double>(after.counter("batcher.expired"));
    out["slab_transfer.capacity"] = static_cast<double>(after.gauge("slab_transfer.capacity"));
    const double recorded = static_cast<double>(after.counter("obs.traces_recorded"));
    out["obs.trace_evict_ratio"] = recorded > 0 ? static_cast<double>(after.counter("obs.traces_evicted")) / recorded : 0.0;
    out["bench.gen_lag_ms.p99"] = quantile(ref.lag_ms, 0.99);
    out["bench.backlog"] = static_cast<double>(ref.backlog.outstanding_at_end);
    out["serve.p50_ms"] = median(ref.latency_ms);
    out["serve.p99_ms"] = quantile(ref.latency_ms, 0.99);
    out["serve.p99_ms.light"] = quantile(light.latency_ms, 0.99);
    out["serve.p99_ms.heavy"] = quantile(heavy.latency_ms, 0.99);
    out["serve.max_rps"] = lo;
    out["serve.capacity_rps"] = capacity_rps;
    out["serve.rom_err_max"] = err_max;
    out["bench.trace_overhead_pct"] = 100.0 * (mean(ref.latency_ms) / mean(ref_plain.latency_ms) - 1.0);

    print_attribution("serve request latency (sum of stage means)", mean_latency,
                      {{"queue_wait", qw.mean() / 1e6},
                       {"stamp", st.mean() / 1e6},
                       {"solve", so.mean() / 1e6},
                       {"fulfil", fu.mean() / 1e6}},
                      "ms");
}

}  // namespace perfbench
