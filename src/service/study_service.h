#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/transient_batch.h"
#include "analysis/variability_study.h"
#include "circuit/parametric_system.h"
#include "obs/metrics.h"
#include "service/model_cache.h"
#include "service/query_batcher.h"
#include "util/single_flight.h"
#include "util/thread_annotations.h"

namespace varmor::service {

/// Per-service configuration shared by every session it opens.
struct StudyServiceOptions {
    /// Reduction used when a model is NOT in the cache (the cache key covers
    /// these options, so two services with different reductions never alias).
    mor::LowRankPmorOptions reduction;
    /// Delay-query semantics: time grid, driven/observed ports, threshold
    /// derivation — TransientStudyOptions reused so a service session and a
    /// standalone transient_study() agree on what "delay at corner p" means.
    /// (`threads`/`histogram_bins` are not used by point serving.)
    analysis::TransientStudyOptions transient;
    /// Coalescing policy of each session's QueryBatcher.
    QueryBatcherOptions batcher;
};

/// One served model: the session facade (shared solve context + cached ROM +
/// engine), the corner-batch transient runner fed from the session's
/// trapezoid-pencil cache, and the query batcher coalescing this model's
/// traffic. Obtained from StudyService::open(); owned by the service.
///
/// Graceful degradation: when the model build/reload fails (and the cache
/// has poisoned the key), the session comes up WITHOUT a ROM and serves
/// transfer/pole queries through direct full-pencil evaluation — slower but
/// exact, and the service stays up. StudyService::open replaces a degraded
/// session with a full one once the key heals (poison expiry + successful
/// build).
class StudySession {
public:
    StudySession(const StudySession&) = delete;
    StudySession& operator=(const StudySession&) = delete;

    // -----------------------------------------------------------------
    // Async point queries (any thread; coalesced by the batcher). Results
    // arrive through slab-backed tickets (service::Future — the
    // std::future surface on a recycled slot, so a warm query allocates
    // nothing). The optional deadline bounds queue time; see QueryBatcher's
    // failure contract for the OverloadError / DeadlineExceeded /
    // ServiceClosed taxonomy — all of which arrive through the ticket.
    // -----------------------------------------------------------------

    /// ROM transfer value H(s, p) (full-pencil value when degraded).
    Future<la::ZMatrix> transfer(std::vector<double> p, la::cplx s,
                                 util::Deadline deadline = {}) {
        return batcher_->submit_transfer(std::move(p), s, deadline);
    }

    /// Full-system 50%-crossing delay at corner p (level fixed per session).
    Future<DelayResult> delay(std::vector<double> p,
                              util::Deadline deadline = {}) {
        return batcher_->submit_delay(std::move(p), deadline);
    }

    /// ROM poles at corner p (full-system dominant poles when degraded).
    Future<std::vector<la::cplx>> poles(std::vector<double> p,
                                        util::Deadline deadline = {}) {
        return batcher_->submit_poles(std::move(p), deadline);
    }

    /// Blocks until everything submitted to this session has executed.
    void flush() { batcher_->flush(); }

    // -----------------------------------------------------------------
    // Unbatched single-query serving: each call serves its query ALONE on
    // fresh per-call scratch — no coalescing, no shared batch state. This is
    // the reference the batched path must match bitwise (degraded sessions
    // route both paths through the same full-pencil code), and the baseline
    // bench/service_throughput measures against.
    // -----------------------------------------------------------------

    la::ZMatrix transfer_now(const std::vector<double>& p, la::cplx s) const;
    DelayResult delay_now(const std::vector<double>& p) const;
    std::vector<la::cplx> poles_now(const std::vector<double>& p) const;

    const CacheKey& key() const { return key_; }
    const analysis::VariabilityStudy& study() const { return study_; }
    const QueryBatcher& batcher() const { return *batcher_; }
    /// Absolute crossing threshold delay queries use (derived once from the
    /// nominal corner when the options left it NaN).
    double delay_level() const { return level_; }

    /// True when the session serves without a ROM (model build failed).
    bool degraded() const { return degraded_; }

private:
    friend class StudyService;
    StudySession(const circuit::ParametricSystem& sys, CacheKey key,
                 ModelCache& cache, const StudyServiceOptions& opts);

    /// Direct full-pencil serving paths (the degraded lanes and the
    /// degraded transfer_now/poles_now reference).
    la::ZMatrix full_transfer(const std::vector<double>& p, la::cplx s) const;
    std::vector<la::cplx> full_poles(const std::vector<double>& p) const;

    CacheKey key_;
    analysis::VariabilityStudy study_;
    analysis::TransientBatchRunner runner_;  ///< pencils from study_'s cache
    analysis::InputFn input_;
    int observe_ = 0;
    double level_ = 0.0;
    bool degraded_ = false;
    std::unique_ptr<QueryBatcher> batcher_;
};

/// The in-process ROM-serving front door: an async facade that keeps reduced
/// models warm in a content-addressed ModelCache and feeds each model's
/// concurrent query traffic through a coalescing QueryBatcher into the
/// batched evaluation engines.
///
///   client threads ──▶ StudySession futures ──▶ QueryBatcher (work-
///   conserving coalescing) ──▶ RomEvalEngine / TransientBatchRunner over
///   util::ThreadPool ──▶ promises resolve
///
/// open() is keyed by cache_key(system, reduction options): reopening a
/// served system — in this process or a later one via the disk tier — skips
/// PRIMA/low-rank construction entirely (model_cache.builds stays
/// flat), which is the paper's build-once/evaluate-forever premise turned
/// into a serving guarantee.
class StudyService {
public:
    /// `cache` must outlive the service (it is typically shared by several
    /// services and processes via its disk tier).
    explicit StudyService(ModelCache& cache, const StudyServiceOptions& opts = {});
    ~StudyService();

    StudyService(const StudyService&) = delete;
    StudyService& operator=(const StudyService&) = delete;

    /// The session serving `sys`, creating it on first open (model from the
    /// cache, reduction only on a true miss). Concurrent opens of ONE system
    /// coalesce onto a single construction; opens of other systems proceed
    /// in parallel (construction runs outside the service lock). The
    /// returned session is valid for the service's lifetime and its query
    /// methods are safe from any thread.
    ///
    /// Recovery: reopening a DEGRADED session's system after its cache key
    /// healed (poison expired, build succeeds again) constructs a fresh
    /// full session and retires the degraded one — existing references stay
    /// valid for the service's lifetime and keep serving degraded.
    StudySession& open(const circuit::ParametricSystem& sys) EXCLUDES(mutex_);

    ModelCache& cache() { return *cache_; }
    const ModelCache& cache() const { return *cache_; }
    const StudyServiceOptions& options() const { return opts_; }

    int num_sessions() const EXCLUDES(mutex_);

    /// Flushes every session's pending queries (retired ones included).
    void flush_all() EXCLUDES(mutex_);

    /// ONE coherent telemetry snapshot for the whole service:
    /// obs::process_snapshot() (latency/stage histograms, engine and solver
    /// counters, pool scheduling, fault-point hits, trace-store occupancy),
    /// merged with the cache's telemetry() (its disk store's included) and
    /// every session's batcher telemetry (retired sessions too — their
    /// queries counted as well; see QueryBatcher::roll_up). Serialize with
    /// obs::Snapshot::to_json().
    obs::Snapshot telemetry() const EXCLUDES(mutex_);

private:
    ModelCache* cache_;
    StudyServiceOptions opts_;
    mutable util::Mutex mutex_;
    std::unordered_map<std::uint64_t, std::unique_ptr<StudySession>> sessions_
        GUARDED_BY(mutex_);
    /// Sessions replaced after healing from degraded mode: kept alive (and
    /// flushable) because clients may still hold references into them.
    std::vector<std::unique_ptr<StudySession>> retired_ GUARDED_BY(mutex_);
    /// In-flight session constructions: concurrent opens of one system
    /// coalesce; opens of other systems proceed in parallel.
    util::SingleFlight<std::uint64_t, StudySession*> opening_;
};

}  // namespace varmor::service
