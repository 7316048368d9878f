#include "service/study_service.h"

#include <cmath>
#include <utility>

#include "analysis/poles.h"
#include "la/ops.h"
#include "obs/export.h"
#include "solve/parametric_context.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace varmor::service {

StudySession::StudySession(const circuit::ParametricSystem& sys, CacheKey key,
                           ModelCache& cache, const StudyServiceOptions& opts)
    : key_(key),
      study_(sys),
      runner_(study_.trapezoid_cache(), opts.transient.transient) {
    VARMOR_FAULT_POINT_DETAIL("study_session.construct", key_.hex());
    // The served model: memory tier, disk tier, or — on a true miss — one
    // low-rank reduction through the session context's cached g0 symbolic.
    // A warm cache performs ZERO reduction work here (model_cache.builds
    // is the counter that proves it). A build that FAILS does not fail the
    // session: it comes up degraded — full-pencil serving, no ROM — and the
    // service swaps in a full session once the key heals (the cache poisons
    // a repeatedly failing key, so degraded opens are cheap in between).
    try {
        ModelCache::ModelPtr model = cache.get_or_build(key_, [&] {
            mor::LowRankPmorOptions build = opts.reduction;
            if (!build.g0_factor && !build.g0_symbolic)
                build.g0_symbolic = &study_.context().g0_symbolic();
            return mor::lowrank_pmor(sys, build).model;
        });
        study_.set_rom(*model);
    } catch (const std::exception&) {
        degraded_ = true;
    }

    input_ = analysis::step_input(runner_.num_ports(), opts.transient.input_port,
                                  opts.transient.amplitude);
    observe_ = opts.transient.observe_port < 0 ? runner_.num_ports() - 1
                                               : opts.transient.observe_port;
    check(observe_ >= 0 && observe_ < runner_.num_ports(),
          "StudySession: observe_port out of range");
    // Fix the crossing threshold ONCE per session (same derivation as
    // transient_study: the nominal corner's settled response), so every
    // delay query — batched or alone — measures against the same level.
    level_ = opts.transient.level;
    if (std::isnan(level_)) {
        const std::vector<double> p0(
            static_cast<std::size_t>(runner_.num_params()), 0.0);
        const analysis::TransientResult nominal = runner_.run(p0, input_);
        level_ = opts.transient.level_fraction *
                 nominal.ports[static_cast<std::size_t>(observe_)].back();
    }
    if (degraded_) {
        QueryFallbacks fallbacks;
        fallbacks.transfer = [this](const std::vector<double>& p, la::cplx s) {
            return full_transfer(p, s);
        };
        fallbacks.poles = [this](const std::vector<double>& p) {
            return full_poles(p);
        };
        batcher_ = std::make_unique<QueryBatcher>(nullptr, std::move(fallbacks),
                                                  &runner_, input_, level_, observe_,
                                                  opts.batcher);
    } else {
        batcher_ = std::make_unique<QueryBatcher>(study_.rom_engine(), &runner_,
                                                  input_, level_, observe_,
                                                  opts.batcher);
    }
}

la::ZMatrix StudySession::full_transfer(const std::vector<double>& p,
                                        la::cplx s) const {
    // The full-pencil reference path (the same scaffold sweep_full uses):
    // stamp G(p)/C(p) on the context's union patterns, factor G + sC once,
    // solve for every port column. Exact — a degraded session trades speed,
    // never correctness.
    const solve::ParametricSolveContext& ctx = study_.context();
    const la::ZMatrix bz = la::to_complex(ctx.system().b);
    const la::ZMatrix lzt = la::transpose(la::to_complex(ctx.system().l));
    const solve::PencilBatch pencil(ctx, p, s);
    return la::matmul(lzt, pencil.reference().solve(bz));
}

std::vector<la::cplx> StudySession::full_poles(const std::vector<double>& p) const {
    return analysis::dominant_poles_at(study_.context().system(), p);
}

la::ZMatrix StudySession::transfer_now(const std::vector<double>& p,
                                       la::cplx s) const {
    if (degraded_) return full_transfer(p, s);
    mor::RomEvalWorkspace ws;
    study_.rom_engine().stamp_parameters(p, ws);
    return study_.rom_engine().transfer(s, ws);
}

DelayResult StudySession::delay_now(const std::vector<double>& p) const {
    const analysis::TransientResult wave = runner_.run(p, input_);
    return DelayResult{analysis::crossing_time(wave, observe_, level_), level_};
}

std::vector<la::cplx> StudySession::poles_now(const std::vector<double>& p) const {
    if (degraded_) return full_poles(p);
    mor::RomEvalWorkspace ws;
    study_.rom_engine().stamp_parameters(p, ws);
    return study_.rom_engine().poles(ws);
}

StudyService::StudyService(ModelCache& cache, const StudyServiceOptions& opts)
    : cache_(&cache), opts_(opts) {}

StudyService::~StudyService() = default;

StudySession& StudyService::open(const circuit::ParametricSystem& sys) {
    const CacheKey key = cache_key(sys, opts_.reduction);
    {
        util::MutexLock lock(mutex_);
        auto it = sessions_.find(key.value);
        // A healthy session — or a degraded one whose key is still poisoned
        // (rebuilding now would just fail fast again) — is final. A degraded
        // session whose poison EXPIRED falls through to a replacement build.
        if (it != sessions_.end() &&
            (!it->second->degraded() || cache_->poisoned(key)))
            return *it->second;
    }
    // Construction (possibly seconds of reduction on a cache miss) runs
    // outside the service lock, single-flighted per key: concurrent opens of
    // THIS system coalesce while opens of other systems — and
    // num_sessions/flush_all — proceed (the same rule ModelCache applies to
    // builders).
    return *opening_.run(key.value, [&]() -> StudySession* {
        {
            util::MutexLock lock(mutex_);
            auto it = sessions_.find(key.value);
            if (it != sessions_.end() &&
                (!it->second->degraded() || cache_->poisoned(key)))
                return it->second.get();  // raced a finished open
        }
        auto session = std::unique_ptr<StudySession>(
            new StudySession(sys, key, *cache_, opts_));
        util::MutexLock lock(mutex_);
        auto it = sessions_.find(key.value);
        if (it != sessions_.end()) {
            // Healed replacement: clients may hold references into the old
            // (degraded) session, so it is retired — kept alive and
            // flushable — rather than destroyed.
            retired_.push_back(std::move(it->second));
            sessions_.erase(it);
        }
        StudySession* ptr = session.get();
        sessions_.emplace(key.value, std::move(session));
        return ptr;
    });
}

int StudyService::num_sessions() const {
    util::MutexLock lock(mutex_);
    return static_cast<int>(sessions_.size());
}

void StudyService::flush_all() {
    // Flush outside the service lock, so open(), num_sessions() and
    // telemetry() proceed while the backlogs execute. Sessions, retired ones
    // included, live as long as the service.
    std::vector<StudySession*> sessions;
    {
        util::MutexLock lock(mutex_);
        for (auto& entry : sessions_) sessions.push_back(entry.second.get());
        for (auto& session : retired_) sessions.push_back(session.get());
    }
    for (StudySession* session : sessions) session->flush();
}

obs::Snapshot StudyService::telemetry() const {
    obs::Snapshot snap = obs::process_snapshot();
    snap.merge(cache_->telemetry());
    util::MutexLock lock(mutex_);
    snap.add_gauge("service.sessions", static_cast<long long>(sessions_.size()));
    snap.add_gauge("service.retired_sessions",
                   static_cast<long long>(retired_.size()));
    for (const auto& entry : sessions_) entry.second->batcher().roll_up(snap);
    for (const auto& session : retired_) session->batcher().roll_up(snap);
    return snap;
}

}  // namespace varmor::service
