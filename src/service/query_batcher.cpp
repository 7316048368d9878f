#include "service/query_batcher.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace varmor::service {

namespace {

std::string point_detail(const std::vector<double>& p) {
    return p.empty() ? std::string() : std::to_string(p[0]);
}

void export_slab(const std::string& prefix, const util::ResultSlabStats& s,
                 obs::Snapshot& out) {
    out.add_gauge(prefix + ".capacity", static_cast<long long>(s.capacity));
    out.add_gauge(prefix + ".in_use", static_cast<long long>(s.in_use));
    out.add_counter(prefix + ".opened", s.opened);
    out.add_counter(prefix + ".recycled", s.recycled);
}

// Lane policies for QueryBatcher::run_chunk. prepare(p, scratch) runs once
// per point group, and only when kStamps; solve(arg, p, scratch) runs once
// per query and returns its answer or throws. make_scratch() gives each
// chunk task its own scratch.

/// Transfer and pole queries on the ROM: the stamp of G~(p), C~(p) (with the
/// engine's Hessenberg preparation) is shared by the whole point group.
struct RomPolicy {
    static constexpr bool kStamps = true;
    const mor::RomEvalEngine* engine;

    mor::RomEvalWorkspace make_scratch() const { return {}; }
    void prepare(const std::vector<double>& p, mor::RomEvalWorkspace& ws) const {
        VARMOR_FAULT_POINT_DETAIL("query_batcher.stamp", point_detail(p));
        engine->stamp_parameters(p, ws);
    }
    la::ZMatrix solve(la::cplx s, const std::vector<double>&,
                      mor::RomEvalWorkspace& ws) const {
        return engine->transfer(s, ws);
    }
    std::vector<la::cplx> solve(std::monostate, const std::vector<double>&,
                                mor::RomEvalWorkspace& ws) const {
        return engine->poles(ws);
    }
};

/// Degraded transfer and pole queries: exact full-pencil evaluation of each
/// query, with nothing shared to prepare.
struct FullPencilPolicy {
    static constexpr bool kStamps = false;
    const QueryFallbacks* fallbacks;

    std::monostate make_scratch() const { return {}; }
    la::ZMatrix solve(la::cplx s, const std::vector<double>& p, std::monostate) const {
        return fallbacks->transfer(p, s);
    }
    std::vector<la::cplx> solve(std::monostate, const std::vector<double>& p,
                                std::monostate) const {
        return fallbacks->poles(p);
    }
};

/// Delay queries: one captured transient run per corner (one refactorization
/// each) on the batcher's shared forcing series. A corner's own failure fails
/// its query only, and every other answer comes from this same batch —
/// never from a re-run.
struct DelayPolicy {
    static constexpr bool kStamps = false;
    const analysis::TransientBatchRunner* runner;
    const std::vector<la::Vector>* forcing;
    int observe;
    double level;

    analysis::TransientBatchRunner::Scratch make_scratch() const {
        return runner->make_scratch();
    }
    DelayResult solve(std::monostate, const std::vector<double>& p,
                      analysis::TransientBatchRunner::Scratch& scratch) const {
        analysis::TransientBatchRunner::CornerOutcome outcome =
            runner->run_corner_captured(p, *forcing, scratch);
        if (outcome.error) std::rethrow_exception(outcome.error);
        return DelayResult{analysis::crossing_time(*outcome.result, observe, level),
                           level};
    }
};

}  // namespace

QueryBatcher::QueryBatcher(const mor::RomEvalEngine* engine, QueryFallbacks fallbacks,
                           const analysis::TransientBatchRunner* transient,
                           analysis::InputFn input, double delay_level,
                           int observe_port, const QueryBatcherOptions& opts)
    : engine_(engine),
      fallbacks_(std::move(fallbacks)),
      transient_(transient),
      input_(std::move(input)),
      level_(delay_level),
      opts_(opts),
      queue_(static_cast<std::size_t>(std::max(0, opts.max_pending))),
      transfer_("transfer", obs::Registry::global().histogram("transfer.latency_ns")),
      pole_("pole", obs::Registry::global().histogram("pole.latency_ns")),
      delay_("delay", obs::Registry::global().histogram("delay.latency_ns")),
      queries_(registry_.counter("batcher.queries")),
      batches_(registry_.counter("batcher.batches")),
      largest_batch_(registry_.gauge("batcher.largest_batch")),
      transfer_queries_(registry_.counter("batcher.transfer_queries")),
      transfer_groups_(registry_.counter("batcher.transfer_groups")),
      shed_(registry_.counter("batcher.shed")),
      expired_(registry_.counter("batcher.expired")),
      rejected_closed_(registry_.counter("batcher.rejected_closed")),
      flush_failures_(registry_.counter("batcher.flush_failures")),
      obs_queue_wait_(obs::Registry::global().histogram("query.queue_wait_ns")),
      obs_stamp_(obs::Registry::global().histogram("query.stamp_ns")),
      obs_solve_(obs::Registry::global().histogram("query.solve_ns")),
      obs_fulfil_(obs::Registry::global().histogram("query.fulfil_ns")) {
    check(opts_.max_pending >= 0, "QueryBatcher: max_pending must be >= 0");
    check(engine_ != nullptr || (fallbacks_.transfer && fallbacks_.poles),
          "QueryBatcher: degraded serving needs both fallback paths");
    if (transient_) {
        observe_ = observe_port < 0 ? transient_->num_ports() - 1 : observe_port;
        check(observe_ >= 0 && observe_ < transient_->num_ports(),
              "QueryBatcher: observe_port out of range");
        check(static_cast<bool>(input_), "QueryBatcher: delay serving needs an input");
    }
    flusher_ = std::thread([this] { flusher_loop(); });
}

QueryBatcher::QueryBatcher(const mor::RomEvalEngine& engine,
                           const analysis::TransientBatchRunner* transient,
                           analysis::InputFn input, double delay_level,
                           int observe_port, const QueryBatcherOptions& opts)
    : QueryBatcher(&engine, QueryFallbacks{}, transient, std::move(input),
                   delay_level, observe_port, opts) {}

QueryBatcher::~QueryBatcher() { close(); }

void QueryBatcher::close() {
    queue_.close();  // flusher drains the tail, then exits
    util::MutexLock lock(close_mutex_);
    if (flusher_.joinable()) flusher_.join();
}

template <class Arg, class Result>
Future<Result> QueryBatcher::admit(Lane<Arg, Result>& lane, Query<Arg, Result> query) {
    auto opened = lane.slab.open();
    query.result = opened.first;
    // The query's trace is born HERE, on the submitting thread: the mint
    // stamps submit time, and every later stage appends to this one object
    // as it rides through triage and the chunk runner. Inactive (id 0, no
    // clock read) when telemetry is off.
    query.trace = obs::QueryTrace::mint();
    if (query.deadline.expired()) {
        expired_.add();
        lane.slab.set_error(opened.first,
                            std::make_exception_ptr(DeadlineExceeded(
                                "QueryBatcher: deadline expired before admission")));
        return std::move(opened.second);
    }
    Item wrapped(std::move(query));
    // try_push moves from `wrapped` only on kOk — on rejection the channel
    // (a POD handle we still hold) is failed cleanly. The submitting thread
    // NEVER sees a throw for load or lifecycle; everything arrives through
    // the ticket.
    switch (queue_.try_push(wrapped)) {
        case util::PushStatus::kOk:
            break;
        case util::PushStatus::kFull: {
            shed_.add();
            lane.slab.set_error(opened.first, std::make_exception_ptr(OverloadError(
                                                  "QueryBatcher: shed — " +
                                                  std::to_string(opts_.max_pending) +
                                                  " queries already pending")));
            break;
        }
        case util::PushStatus::kClosed: {
            rejected_closed_.add();
            lane.slab.set_error(opened.first, std::make_exception_ptr(ServiceClosed(
                                                  "QueryBatcher: submit after close")));
            break;
        }
    }
    return std::move(opened.second);
}

Future<la::ZMatrix> QueryBatcher::submit_transfer(std::vector<double> p, la::cplx s,
                                                  util::Deadline deadline) {
    return admit(transfer_, {std::move(p), s, deadline, {}, {}});
}

Future<DelayResult> QueryBatcher::submit_delay(std::vector<double> p,
                                               util::Deadline deadline) {
    check(transient_ != nullptr, "QueryBatcher: no transient runner configured");
    return admit(delay_, {std::move(p), {}, deadline, {}, {}});
}

Future<std::vector<la::cplx>> QueryBatcher::submit_poles(std::vector<double> p,
                                                         util::Deadline deadline) {
    return admit(pole_, {std::move(p), {}, deadline, {}, {}});
}

void QueryBatcher::flush() {
    auto opened = flush_slab_.open();
    Item wrapped(FlushItem{opened.first});
    // force: a flush marker is a control message, exempt from admission
    // control (shedding it would deadlock the flusher's caller), but not
    // from close() — after close everything is already drained.
    if (queue_.try_push(wrapped, /*force=*/true) != util::PushStatus::kOk) {
        flush_slab_.set_value(opened.first, {});  // recycle the slot
        return;
    }
    opened.second.get();
}

obs::Snapshot QueryBatcher::telemetry() const {
    obs::Snapshot s = registry_.snapshot();
    export_slab("slab_transfer", transfer_.slab.stats(), s);
    export_slab("slab_delay", delay_.slab.stats(), s);
    export_slab("slab_pole", pole_.slab.stats(), s);
    return s;
}

void QueryBatcher::roll_up(obs::Snapshot& total) const {
    const obs::Snapshot mine = telemetry();
    const long long largest = std::max(total.gauge("batcher.largest_batch"),
                                       mine.gauge("batcher.largest_batch"));
    total.merge(mine);
    total.gauges["batcher.largest_batch"] = largest;
}

void QueryBatcher::flusher_loop() {
    while (true) {
        std::optional<Item> first = queue_.pop();
        if (!first) break;  // closed and drained

        std::vector<FlushItem> acks;
        int nqueries = 0;
        // Sorts one popped item into its lane's point group; true = flush
        // marker (stop collecting so the marker's "everything before me"
        // promise holds). Deadline triage happens HERE: a query that expired
        // while queued is completed with DeadlineExceeded now instead of
        // riding a batch whose result it can no longer use.
        auto take = [&](Item& item) -> bool {
            if (const auto* ack = std::get_if<FlushItem>(&item)) {
                acks.push_back(*ack);
                return true;
            }
            // Triage IS the end of the queue-wait stage: one clock read per
            // popped item (telemetry on only), shared by the span and the
            // expiry records below.
            const std::int64_t tnow = obs::enabled() ? util::Timer::now_ns() : 0;
            for_each_lane([&](auto& lane) {
                auto* query =
                    std::get_if<typename std::decay_t<decltype(lane)>::QueryT>(&item);
                if (query == nullptr) return;
                obs::QueryTrace& trace = query->trace;
                if (query->deadline.expired()) {
                    // Count BEFORE failing the channel (same order as admit):
                    // a telemetry() read right after this ticket resolves
                    // must already see the expiry.
                    expired_.add();
                    // An expired query's trace still tells its story: all
                    // queue-wait, resolved as a failure, recorded now (it
                    // will never reach a chunk).
                    if (trace.active()) {
                        trace.add(obs::Stage::kQueueWait, trace.submit_ns, tnow);
                        trace.ok = false;
                        if (tnow != 0) obs_queue_wait_.record(tnow - trace.submit_ns);
                        obs::TraceStore::global().record(trace, lane.name);
                    }
                    lane.slab.set_error(
                        query->result,
                        std::make_exception_ptr(DeadlineExceeded(
                            "QueryBatcher: deadline expired in the queue")));
                    return;
                }
                if (tnow != 0) trace.add(obs::Stage::kQueueWait, trace.submit_ns, tnow);
                ++nqueries;
                auto group = std::find_if(
                    lane.groups.begin(), lane.groups.end(),
                    [&](const auto& g) { return g.front().p == query->p; });
                if (group == lane.groups.end())
                    group = lane.groups.emplace(lane.groups.end());
                group->push_back(std::move(*query));
            });
            return false;
        };

        // Work-conserving: the batch is whatever queued while the previous
        // one executed, up to kMaxBatch queries or a flush marker. The
        // flusher never waits for more.
        bool stop = take(*first);
        while (!stop && nqueries < kMaxBatch) {
            std::optional<Item> item = queue_.try_pop();
            if (!item) break;
            stop = take(*item);
        }

        // Count the batch BEFORE execution: the first set_value below
        // releases a waiting client, and a telemetry() read right after a
        // ticket resolves (or after flush() returns) must already see the
        // batch that produced it.
        queries_.add(nqueries);
        batches_.add();
        largest_batch_.raise(nqueries);

        // The flusher survives ANYTHING a batch throws — injected faults
        // included: the failure goes into the affected queries' channels
        // (set_error is a no-op on the already-answered, which keep their
        // values) and the loop serves the next batch. A wedged flusher would
        // wedge every future client; a failed batch only fails its own
        // members.
        try {
            VARMOR_FAULT_POINT("query_batcher.flush");
            execute();
        } catch (...) {
            // A whole-batch failure can only be thrown BEFORE the chunk
            // tasks run (their bodies catch internally), so no trace here
            // was finished yet.
            const std::exception_ptr error = std::current_exception();
            flush_failures_.add();
            for_each_lane([&](auto& lane) { fail_lane(lane, error); });
        }
        for_each_lane([](auto& lane) { lane.groups.clear(); });
        for (FlushItem& ack : acks) flush_slab_.set_value(ack.done, {});
    }
}

void QueryBatcher::execute() {
    // Failure isolation contract across all three lanes: a query's outcome —
    // value or exception — must depend on ITS OWN arguments only, never on
    // what else happened to be coalesced with it (the serve-alone purity the
    // header promises). Every chunk task catches internally, so the combined
    // section never aborts early.
    //
    // The lanes are fanned into ONE task set on the work-stealing pool:
    // dense transfer/pole chunks and sparse delay corners interleave on the
    // same workers instead of running lane-after-lane. Task composition
    // affects scheduling only — each query's result is computed
    // independently, so the overlap is invisible in the bits. Each lane is
    // cut as the pool would cut a section over it (ThreadPool::chunks).
    util::ThreadPool& pool = util::ThreadPool::global();
    std::vector<std::function<void()>> tasks;
    auto add_chunks = [&](auto& lane, auto policy) {
        const std::size_t n = lane.groups.size();
        if (n == 0) return;
        const auto chunks =
            static_cast<std::size_t>(pool.chunks(static_cast<int>(n), opts_.threads));
        for (std::size_t c = 0; c < chunks; ++c)
            tasks.push_back([this, &lane, policy, b = n * c / chunks,
                             e = n * (c + 1) / chunks] {
                run_chunk(lane, policy, b, e);
            });
    };

    for (const auto& group : transfer_.groups)
        transfer_queries_.add(static_cast<long long>(group.size()));
    transfer_groups_.add(static_cast<long long>(transfer_.groups.size()));
    // The ROM or, degraded, the full pencil: one policy for the whole flush.
    if (engine_) {
        add_chunks(transfer_, RomPolicy{engine_});
        add_chunks(pole_, RomPolicy{engine_});
    } else {
        add_chunks(transfer_, FullPencilPolicy{&fallbacks_});
        add_chunks(pole_, FullPencilPolicy{&fallbacks_});
    }

    // The delay lane's forcing series depends on the batcher's input and
    // time grid only, so the first delay flush evaluates it on the flusher
    // thread and later flushes reuse it. Evaluating it per flush would
    // allocate and free steps x n doubles each time, a churn that makes the
    // heap trim and refault under glibc's adaptive trim threshold. A failure
    // is not kept: it fails every delay of that flush (each would fail
    // served alone too), and the next delay flush retries.
    if (!delay_.groups.empty() && forcing_.empty()) {
        try {
            forcing_ = transient_->make_forcing(input_);
        } catch (...) {
            fail_lane(delay_, std::current_exception());
            delay_.groups.clear();
        }
    }
    add_chunks(delay_, DelayPolicy{transient_, &forcing_, observe_, level_});

    pool.parallel_tasks(tasks, opts_.threads);
}

template <class Arg, class Result, class Policy>
void QueryBatcher::run_chunk(Lane<Arg, Result>& lane, const Policy& policy,
                             std::size_t b, std::size_t e) {
    auto scratch = policy.make_scratch();
    {
        // Batch fulfilment: the chunk's answers land under ONE slab lock
        // with ONE wake-up when the batch commits, instead of a per-query
        // notify storm across every blocked client.
        typename util::ResultSlab<Result>::Batch done(lane.slab);
        for (std::size_t g = b; g < e; ++g) {
            std::vector<Query<Arg, Result>>& group = lane.groups[g];
            const std::vector<double>& p = group.front().p;
            if constexpr (Policy::kStamps) {
                // The stamp depends on p alone, so its failure fails the
                // whole group (each member would fail served alone too).
                // ONE timed span, copied into every member's trace.
                const std::int64_t t0 = obs::enabled() ? util::Timer::now_ns() : 0;
                try {
                    policy.prepare(p, scratch);
                } catch (...) {
                    for (Query<Arg, Result>& query : group) {
                        query.trace.ok = false;
                        done.set_error(query.result, std::current_exception());
                    }
                    continue;
                }
                if (t0 != 0) {
                    const std::int64_t t1 = util::Timer::now_ns();
                    for (Query<Arg, Result>& query : group)
                        query.trace.add(obs::Stage::kStamp, t0, t1);
                }
            }
            for (Query<Arg, Result>& query : group) {
                const std::int64_t s0 =
                    obs::enabled() && query.trace.active() ? util::Timer::now_ns() : 0;
                try {
                    done.set_value(query.result, policy.solve(query.arg, p, scratch));
                } catch (...) {
                    // e.g. the pencil singular at exactly this s: fails THIS
                    // query only, like serve-alone would.
                    query.trace.ok = false;
                    done.set_error(query.result, std::current_exception());
                }
                if (s0 != 0)
                    query.trace.add(obs::Stage::kSolve, s0, util::Timer::now_ns());
            }
        }
    }  // batch committed: the chunk's results are visible now
    finish_traces(lane, b, e);
}

template <class Arg, class Result>
void QueryBatcher::fail_lane(Lane<Arg, Result>& lane, const std::exception_ptr& error) {
    {
        typename util::ResultSlab<Result>::Batch done(lane.slab);
        for (std::vector<Query<Arg, Result>>& group : lane.groups)
            for (Query<Arg, Result>& query : group) {
                query.trace.ok = false;
                done.set_error(query.result, error);
            }
    }
    finish_traces(lane, 0, lane.groups.size());
}

template <class Arg, class Result>
void QueryBatcher::finish_traces(Lane<Arg, Result>& lane, std::size_t b,
                                 std::size_t e) {
    if (!obs::enabled()) return;
    const std::int64_t now_ns = util::Timer::now_ns();
    for (std::size_t g = b; g < e; ++g)
        for (Query<Arg, Result>& query : lane.groups[g]) {
            obs::QueryTrace& trace = query.trace;
            if (!trace.active()) continue;
            trace.add(obs::Stage::kFulfil, trace.last_end_ns(), now_ns);
            lane.latency.record(now_ns - trace.submit_ns);
            for (int i = 0; i < trace.num_spans; ++i) {
                const obs::Span& span = trace.spans[i];
                switch (span.stage) {
                    case obs::Stage::kQueueWait:
                        obs_queue_wait_.record(span.duration_ns());
                        break;
                    case obs::Stage::kStamp:
                        obs_stamp_.record(span.duration_ns());
                        break;
                    case obs::Stage::kSolve:
                        obs_solve_.record(span.duration_ns());
                        break;
                    case obs::Stage::kFulfil:
                        obs_fulfil_.record(span.duration_ns());
                        break;
                }
            }
            obs::TraceStore::global().record(trace, lane.name);
        }
}

}  // namespace varmor::service
