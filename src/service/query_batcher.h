#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/transient.h"
#include "analysis/transient_batch.h"
#include "la/dense.h"
#include "mor/rom_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/errors.h"
#include "util/deadline.h"
#include "util/mpmc_queue.h"
#include "util/result_slab.h"
#include "util/thread_annotations.h"

namespace varmor::service {

/// The serving layer's async result handle: a slab-backed ticket with the
/// std::future surface the call sites rely on (get / wait_for / valid).
/// Submits used to allocate a promise/future pair per query; tickets are
/// recycled slab slots, so a warm query's result round-trip allocates
/// nothing (see util::ResultSlab).
template <class T>
using Future = util::ResultTicket<T>;

/// Answer to a delay query: the 50%-crossing time of the observed port
/// (nullopt if the waveform never crosses inside the simulated window) and
/// the absolute threshold the session used.
struct DelayResult {
    std::optional<double> delay;
    double level = 0.0;
};

/// How a batch runs and how much may queue for it. What a flush takes is not
/// an option: everything pending, up to QueryBatcher::kMaxBatch queries.
struct QueryBatcherOptions {
    /// Width of batch EXECUTION on the process-wide pool
    /// (util::ThreadPool): 0 = all of it, 1 = inline on the flusher.
    int threads = 0;
    /// Admission bound: at most this many queries pending in the ingress
    /// queue; past it submits are SHED with an OverloadError future (0 =
    /// unbounded). Overload degrades into fast rejection of the excess, not
    /// into unbounded latency for everyone.
    int max_pending = 0;
};

/// Degraded-mode serving paths used when no ROM engine is available (the
/// model build failed and the key is poisoned — see StudySession): per-query
/// full-pencil evaluation. Slower, but answers stay exact and the service
/// stays up. A degraded batcher needs both.
struct QueryFallbacks {
    std::function<la::ZMatrix(const std::vector<double>& p, la::cplx s)> transfer;
    std::function<std::vector<la::cplx>(const std::vector<double>& p)> poles;
};

/// Coalesces concurrent point queries from many logical clients into the
/// batched engines — the middle piece of the serving subsystem.
///
/// Three query classes are accepted, each on its own LANE, and every lane
/// runs one chunk runner driven by a small policy: a flush groups the lane's
/// queries by exact parameter point, the policy prepares once per point
/// group (if it stamps), then solves once per query.
///
///   transfer(p, s)  ROM policy: stamp G~(p), C~(p) and prepare per point on
///                   the mor::RomEvalEngine lane the model took: on the RC
///                   lane (every RC model) one tridiagonalization per point
///                   and one O(q*m) tridiagonal solve per s, on the general
///                   lanes a Hessenberg or direct preparation and solve
///   poles(p)        ROM policy: the same stamp, the engine pole kernel
///   delay(p)        the forcing step (TransientBatchRunner::make_forcing,
///                   run at the first delay flush and kept), then one solve
///                   per corner: a full-system transient run and its
///                   50%-crossing delay
///
/// Degraded serving (no ROM engine) is the full-pencil policy on the
/// transfer and pole lanes: nothing to prepare, one exact QueryFallbacks
/// evaluation per query, chosen once per flush.
///
/// Queries are enqueued on a util::MpmcQueue and drained by one flusher
/// thread under a work-conserving policy: it blocks for one item, takes
/// whatever else has queued (up to kMaxBatch queries or a flush marker),
/// executes that batch and repeats. It never waits for more, so under load a
/// batch is what queued while the previous one ran. flush() returns once
/// everything submitted before it has executed.
///
/// Within one flush the three lanes are OVERLAPPED, not sequential: every
/// lane's point groups are cut into chunks and submitted as ONE task set to
/// the work-stealing util::ThreadPool, so a worker that finishes its dense
/// Hessenberg chunks steals sparse transient corners (and vice versa)
/// instead of idling at a lane barrier. Results are unaffected — every task
/// computes items independently (the bit-identity contract below).
///
/// Determinism contract (the reason coalescing is safe to hide behind
/// futures): every query's answer is a pure function of its own arguments —
/// each engine computes a batch item independently of batch composition and
/// thread count — so a coalesced batch is BIT-IDENTICAL to serving each
/// query alone, no matter how traffic happens to interleave.
///
/// Failure contract: submit never throws for load, latency, or lifecycle
/// reasons, and NO accepted query's future is ever left unfulfilled — every
/// outcome arrives through the future as a value or as one of the
/// service::errors taxonomy (OverloadError when shed at ingress,
/// DeadlineExceeded when a per-query Deadline passes in the queue,
/// ServiceClosed when racing close()). During batch execution a query's
/// outcome depends on its own arguments only: a failed prepare fails its
/// point group (it depends on p alone), a failed solve fails its query, a
/// failed forcing step fails every delay of the flush (each would fail
/// alone too). A failure of the batch as a whole — injected faults
/// included — fails its queries' futures, and the flusher keeps serving
/// subsequent batches.
class QueryBatcher {
public:
    /// Most queries one flush takes; the rest wait for the next flush.
    static constexpr int kMaxBatch = 64;

    /// Serves transfer/pole queries on `engine` — or, when `engine` is null,
    /// on the `fallbacks` paths (degraded mode) — and (when `transient` is
    /// non-null) delay queries on `transient` with the given step input and
    /// absolute crossing threshold. All referenced objects must outlive the
    /// batcher. `observe_port` follows TransientStudyOptions (-1 = last).
    QueryBatcher(const mor::RomEvalEngine* engine, QueryFallbacks fallbacks,
                 const analysis::TransientBatchRunner* transient,
                 analysis::InputFn input, double delay_level, int observe_port,
                 const QueryBatcherOptions& opts = {});

    /// Engine-only convenience (the common, non-degraded construction).
    QueryBatcher(const mor::RomEvalEngine& engine,
                 const analysis::TransientBatchRunner* transient,
                 analysis::InputFn input, double delay_level, int observe_port,
                 const QueryBatcherOptions& opts = {});

    /// Drains everything pending, then joins the flusher.
    ~QueryBatcher();

    QueryBatcher(const QueryBatcher&) = delete;
    QueryBatcher& operator=(const QueryBatcher&) = delete;

    // -----------------------------------------------------------------
    // Point queries (safe from any thread; results via slab ticket — see
    // Future above). An unset deadline means "whenever"; a set one bounds
    // queue time — an expired query is completed with DeadlineExceeded,
    // never silently dropped. Tickets share ownership of their slab, so
    // they stay collectible after the batcher is destroyed.
    // -----------------------------------------------------------------

    Future<la::ZMatrix> submit_transfer(std::vector<double> p, la::cplx s,
                                        util::Deadline deadline = {});
    Future<DelayResult> submit_delay(std::vector<double> p,
                                     util::Deadline deadline = {});
    Future<std::vector<la::cplx>> submit_poles(std::vector<double> p,
                                               util::Deadline deadline = {});

    /// Blocks until every query submitted before this call has executed.
    /// After close() this is a no-op (everything was drained by close).
    void flush();

    /// Drains everything already submitted, then stops the flusher
    /// (idempotent; the destructor calls it). Later submits get ServiceClosed
    /// futures — never an exception into the submitting thread.
    void close();

    /// True when serving on the fallback paths (no ROM engine).
    bool degraded() const { return engine_ == nullptr; }

    const QueryBatcherOptions& options() const { return opts_; }

    /// This batcher's `batcher.*` counters — `queries` accepted, `batches`
    /// flushed (empty flush() acks too), `transfer_queries` and
    /// `transfer_groups` (their distinct points per flush; the coalescing win
    /// is the ratio), `shed` (OverloadError), `expired` (DeadlineExceeded),
    /// `rejected_closed` (ServiceClosed), `flush_failures` (a batch whose
    /// execution itself failed) — the gauge `batcher.largest_batch` (most
    /// queries in one flush), and each lane's util::ResultSlabStats as
    /// `slab_{transfer,delay,pole}.{capacity,in_use,opened,recycled}`.
    /// The counters belong to this instance, so a reset of the process
    /// registry leaves them alone. Each is counted before the answer it
    /// accounts for is released: a read right after a ticket resolves sees it.
    obs::Snapshot telemetry() const;

    /// Adds telemetry() into a roll-up over several batchers: counters and
    /// slab occupancy add, while `batcher.largest_batch` is the maximum (a
    /// sum of per-batcher maxima is no flush that ever ran).
    void roll_up(obs::Snapshot& total) const;

private:
    /// One point query; `Arg` is its argument besides p (std::monostate when
    /// the answer depends on p alone). Its obs::QueryTrace is minted at
    /// submit, gets its queue-wait span at triage and its stamp/solve spans
    /// in the chunk runner, and is recorded at fulfilment. An inactive trace
    /// (telemetry off) makes every one of those a no-op.
    template <class Arg, class Result>
    struct Query {
        std::vector<double> p;
        Arg arg;
        util::Deadline deadline;
        obs::QueryTrace trace;
        typename util::ResultSlab<Result>::Channel result;
    };

    /// One query class: its trace-store name, latency histogram and result
    /// arena, plus the current flush's queries grouped by EXACT parameter
    /// point (near-equal points must not alias; grouping affects only
    /// amortization, never results). Slab slots recycle once a batch
    /// fulfils them and their client collects, so steady-state traffic
    /// reuses a small fixed pool. `groups` belongs to the flusher thread and
    /// the chunk tasks it joins.
    template <class Arg, class Result>
    struct Lane {
        using QueryT = Query<Arg, Result>;

        Lane(const char* lane_name, obs::Histogram& lane_latency)
            : name(lane_name), latency(lane_latency) {}

        const char* name;
        obs::Histogram& latency;
        util::ResultSlab<Result> slab;
        /// First-seen point order; arrival order within a group.
        std::vector<std::vector<QueryT>> groups;
    };

    using TransferLane = Lane<la::cplx, la::ZMatrix>;
    using PoleLane = Lane<std::monostate, std::vector<la::cplx>>;
    using DelayLane = Lane<std::monostate, DelayResult>;
    struct FlushItem {
        util::ResultSlab<std::monostate>::Channel done;
    };
    using Item = std::variant<TransferLane::QueryT, PoleLane::QueryT,
                              DelayLane::QueryT, FlushItem>;

    /// Admission control shared by the three submits: opens a channel on the
    /// lane's slab and returns its ticket, which a flush fulfils — or which
    /// is failed right here when the query is expired / shed / racing close().
    template <class Arg, class Result>
    Future<Result> admit(Lane<Arg, Result>& lane, Query<Arg, Result> query);

    /// Triage, the whole-batch catch-all and the end-of-flush reset treat the
    /// lanes alike.
    template <class F>
    void for_each_lane(F&& f) {
        f(transfer_);
        f(pole_);
        f(delay_);
    }

    void flusher_loop();
    void execute();

    /// The chunk-task body of every lane, over point groups [b, e): the
    /// policy prepares each point once (only if it stamps) and solves each
    /// query once; the answers commit as one slab batch.
    template <class Arg, class Result, class Policy>
    void run_chunk(Lane<Arg, Result>& lane, const Policy& policy, std::size_t b,
                   std::size_t e);

    /// Fails every query of the lane's flush with `error` (answered ones keep
    /// their values) and closes their traces.
    template <class Arg, class Result>
    void fail_lane(Lane<Arg, Result>& lane, const std::exception_ptr& error);

    /// Closes out the traces of point groups [b, e) once their answers are
    /// visible: fulfil span (last span end → now), per-stage and lane latency
    /// histograms, TraceStore record. No-op with telemetry off.
    template <class Arg, class Result>
    void finish_traces(Lane<Arg, Result>& lane, std::size_t b, std::size_t e);

    const mor::RomEvalEngine* engine_;  ///< null = degraded (fallbacks serve)
    QueryFallbacks fallbacks_;
    const analysis::TransientBatchRunner* transient_;
    analysis::InputFn input_;
    /// The delay forcing series of input_, empty until the first delay
    /// flush evaluates it. Flusher thread only, like the lanes.
    std::vector<la::Vector> forcing_;
    double level_ = 0.0;
    int observe_ = 0;
    QueryBatcherOptions opts_;

    util::MpmcQueue<Item> queue_;
    TransferLane transfer_;
    PoleLane pole_;
    DelayLane delay_;
    util::ResultSlab<std::monostate> flush_slab_;
    /// This batcher's counters (see telemetry()), resolved once at
    /// construction. Relaxed adds suffice: the slab lock that releases an
    /// answer publishes every count made before it.
    obs::Registry registry_;
    obs::Counter& queries_;
    obs::Counter& batches_;
    obs::Gauge& largest_batch_;
    obs::Counter& transfer_queries_;
    obs::Counter& transfer_groups_;
    obs::Counter& shed_;
    obs::Counter& expired_;
    obs::Counter& rejected_closed_;
    obs::Counter& flush_failures_;
    /// Registry-owned stage instruments, resolved once at construction
    /// (instruments are process-global and never move, so the references
    /// stay valid and the hot path never touches the registry lock).
    obs::Histogram& obs_queue_wait_;
    obs::Histogram& obs_stamp_;
    obs::Histogram& obs_solve_;
    obs::Histogram& obs_fulfil_;
    util::Mutex close_mutex_;  ///< serializes close() callers around the join
    /// Written once in the constructor; joined under close_mutex_ — never
    /// touched concurrently outside that, so deliberately unguarded.
    std::thread flusher_;  ///< last member: joins before the rest tears down
};

}  // namespace varmor::service
