#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace varmor::util {

template <class T>
class ResultSlab;

/// Occupancy counters of one slab (see ResultSlab::stats). After warm-up
/// `capacity` stops growing and every open() reuses a recycled slot —
/// `opened - recycled == in_use` is the number of results still in flight.
/// Not a copy of obs counters: `capacity` and `in_use` are the slab's own
/// slot and free-list state, read under the slab's lock together with the
/// two counts, so the identity above holds in every read.
struct ResultSlabStats {
    std::size_t capacity = 0;  ///< slots ever allocated (high-water mark)
    std::size_t in_use = 0;    ///< slots currently between open() and recycle
    long long opened = 0;      ///< channels handed out
    long long recycled = 0;    ///< slots returned to the free list
};

namespace slab_detail {

/// Shared state of a slab and its tickets. One mutex for the whole slab:
/// every operation on it is O(1) pointer/flag work (the values themselves
/// are moved, not copied), and a producer fulfilling through a Batch touches
/// it once per lane chunk — contention is bounded by batch fulfillment, not
/// by query concurrency.
template <class T>
struct SlabCore {
    struct Slot {
        std::uint32_t gen = 0;      ///< bumped on recycle; stale-handle guard
        bool produced = false;      ///< value/error is set
        bool producer_live = true;  ///< the channel may still fulfil
        bool consumer_live = true;  ///< a ticket still references the slot
        std::optional<T> value;
        std::exception_ptr error;
    };

    Mutex m;
    CondVar ready;
    /// std::deque: grows without moving elements, so slot references held
    /// across a CondVar wait stay valid while other threads open new slots.
    std::deque<Slot> slots GUARDED_BY(m);
    std::vector<std::uint32_t> free_list GUARDED_BY(m);
    long long opened GUARDED_BY(m) = 0;
    long long recycled GUARDED_BY(m) = 0;

    /// Returns a slot whose producer AND consumer are done to the free list.
    void recycle_locked(std::uint32_t idx) REQUIRES(m) {
        Slot& slot = slots[idx];
        ++slot.gen;
        slot.produced = false;
        slot.producer_live = true;
        slot.consumer_live = true;
        slot.value.reset();
        slot.error = nullptr;
        free_list.push_back(idx);
        ++recycled;
    }
};

}  // namespace slab_detail

/// Consumer half of a slab channel: the drop-in for the std::future a
/// query submit used to return. Move-only and one-shot — get() blocks until
/// the producer fulfilled the slot, then returns the value or rethrows the
/// error, releasing the slot back to the slab. wait_for mirrors
/// std::future::wait_for (std::future_status) so call sites and tests keep
/// their shape. Destroying an unconsumed ticket abandons the slot; it is
/// recycled once the producer side finishes. Tickets share ownership of the
/// slab core, so they stay valid after the slab (and whatever owns it, e.g.
/// a QueryBatcher) is destroyed.
template <class T>
class ResultTicket {
public:
    ResultTicket() = default;
    ResultTicket(ResultTicket&& other) noexcept
        : core_(std::move(other.core_)), idx_(other.idx_), gen_(other.gen_) {
        other.core_.reset();
    }
    ResultTicket& operator=(ResultTicket&& other) noexcept {
        if (this != &other) {
            release();
            core_ = std::move(other.core_);
            idx_ = other.idx_;
            gen_ = other.gen_;
            other.core_.reset();
        }
        return *this;
    }
    ~ResultTicket() { release(); }

    ResultTicket(const ResultTicket&) = delete;
    ResultTicket& operator=(const ResultTicket&) = delete;

    /// True until get() consumes the ticket (or it is moved from).
    bool valid() const { return core_ != nullptr; }

    /// Blocks until the result arrives; returns the value or rethrows the
    /// producer's error. One-shot: the ticket is invalid afterwards and the
    /// slot is recycled (once the producer side also finished).
    T get() {
        check(valid(), "ResultTicket: get() on an invalid ticket");
        std::shared_ptr<slab_detail::SlabCore<T>> core = std::move(core_);
        core_.reset();
        std::optional<T> value;
        std::exception_ptr error;
        {
            MutexLock lock(core->m);
            auto& slot = core->slots[idx_];
            while (!slot.produced) core->ready.wait(core->m);
            error = slot.error;
            value = std::move(slot.value);
            slot.consumer_live = false;
            if (!slot.producer_live) core->recycle_locked(idx_);
        }
        if (error) std::rethrow_exception(error);
        return std::move(*value);
    }

    /// std::future_status::ready once the producer fulfilled the slot,
    /// std::future_status::timeout if `dur` elapses first.
    template <class Rep, class Period>
    std::future_status wait_for(const std::chrono::duration<Rep, Period>& dur) const {
        check(valid(), "ResultTicket: wait_for() on an invalid ticket");
        const auto deadline = std::chrono::steady_clock::now() + dur;
        MutexLock lock(core_->m);
        auto& slot = core_->slots[idx_];
        while (!slot.produced) {
            if (core_->ready.wait_until(core_->m, deadline) == std::cv_status::timeout)
                return slot.produced ? std::future_status::ready
                                     : std::future_status::timeout;
        }
        return std::future_status::ready;
    }

private:
    friend class ResultSlab<T>;
    ResultTicket(std::shared_ptr<slab_detail::SlabCore<T>> core, std::uint32_t idx,
                 std::uint32_t gen)
        : core_(std::move(core)), idx_(idx), gen_(gen) {}

    /// Abandon without consuming: the slot recycles when the producer side
    /// is also done (a producer fulfilling an abandoned slot recycles it).
    void release() {
        if (!core_) return;
        std::shared_ptr<slab_detail::SlabCore<T>> core = std::move(core_);
        core_.reset();
        MutexLock lock(core->m);
        auto& slot = core->slots[idx_];
        slot.consumer_live = false;
        if (!slot.producer_live) core->recycle_locked(idx_);
    }

    std::shared_ptr<slab_detail::SlabCore<T>> core_;
    std::uint32_t idx_ = 0;
    std::uint32_t gen_ = 0;
};

/// Slab-allocated result-channel arena: the serving layer's replacement for
/// per-query std::promise/std::future pairs. open() hands out a (Channel,
/// ResultTicket) pair backed by a pooled slot; the producer fulfils the
/// channel with set_value/set_error (or, for a whole lane chunk at once,
/// through a Batch), the consumer collects through the ticket, and the slot
/// returns to the free list the moment both sides are done. After the first flush epoch warms the pool, a query's whole result
/// round-trip performs ZERO heap allocation (the value itself is moved
/// through the slot) — where promise/future paid one shared-state
/// allocation per query.
///
/// Channel is a trivially-copyable handle (index + generation); a stale
/// handle — one whose slot was recycled — is detected by the generation
/// check and rejected, never misdelivered. The producer contract mirrors
/// QueryBatcher's: every opened channel IS eventually fulfilled (set_value,
/// set_error, or the batch catch-all), so slots cannot leak.
template <class T>
class ResultSlab {
public:
    /// Producer handle for one result slot. POD on purpose: it rides inside
    /// queue items and lane arrays with no lifetime of its own.
    struct Channel {
        std::uint32_t idx = 0;
        std::uint32_t gen = 0;
    };

    ResultSlab() : core_(std::make_shared<slab_detail::SlabCore<T>>()) {}

    /// Opens a channel: pops a recycled slot (no allocation on the warm
    /// path) or grows the slab on first use / at a new concurrency
    /// high-water mark.
    std::pair<Channel, ResultTicket<T>> open() {
        MutexLock lock(core_->m);
        std::uint32_t idx;
        if (!core_->free_list.empty()) {
            idx = core_->free_list.back();
            core_->free_list.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(core_->slots.size());
            core_->slots.emplace_back();
        }
        ++core_->opened;
        return {Channel{idx, core_->slots[idx].gen},
                ResultTicket<T>(core_, idx, core_->slots[idx].gen)};
    }

    /// Fulfils the channel with a value; wakes the ticket. Returns false —
    /// and drops `value` — when the slot was already fulfilled or the
    /// handle is stale (tolerant, like failing an already-satisfied
    /// promise: batch catch-alls sweep every member without tracking which
    /// already answered).
    bool set_value(const Channel& ch, T value) {
        return fulfil(ch, std::move(value), nullptr);
    }

    /// Fulfils the channel with an error; same tolerance as set_value.
    bool set_error(const Channel& ch, std::exception_ptr error) {
        return fulfil(ch, std::nullopt, std::move(error));
    }

    /// Buffered producer: set_value/set_error calls accumulate locally (no
    /// lock taken), then commit() applies the whole batch under ONE slab
    /// lock and wakes the waiters with ONE notify_all. Per-result
    /// fulfilment is a thundering herd — with C blocked clients every
    /// answer wakes all C to let one proceed; a lane task fulfilling its
    /// chunk through a Batch pays one wake for the whole chunk instead.
    /// Stale/double-fulfil tolerance is checked at commit time, entry by
    /// entry, exactly like the direct calls. The destructor commits, so a
    /// Batch at task scope cannot strand a channel.
    class Batch {
    public:
        explicit Batch(ResultSlab& slab) : slab_(&slab) {}
        ~Batch() { commit(); }
        Batch(const Batch&) = delete;
        Batch& operator=(const Batch&) = delete;

        void set_value(const Channel& ch, T value) {
            pending_.push_back(Entry{ch, std::move(value), nullptr});
        }
        void set_error(const Channel& ch, std::exception_ptr error) {
            pending_.push_back(Entry{ch, std::nullopt, std::move(error)});
        }

        /// Applies everything buffered so far; reusable afterwards.
        void commit() {
            if (pending_.empty()) return;
            bool notify = false;
            {
                MutexLock lock(slab_->core_->m);
                for (Entry& e : pending_)
                    notify = slab_->fulfil_locked(e.ch, std::move(e.value),
                                                  std::move(e.error)).notify ||
                             notify;
            }
            if (notify) slab_->core_->ready.notify_all();
            pending_.clear();
        }

    private:
        struct Entry {
            Channel ch;
            std::optional<T> value;
            std::exception_ptr error;
        };
        ResultSlab* slab_;
        std::vector<Entry> pending_;
    };

    ResultSlabStats stats() const {
        MutexLock lock(core_->m);
        ResultSlabStats out;
        out.capacity = core_->slots.size();
        out.in_use = core_->slots.size() - core_->free_list.size();
        out.opened = core_->opened;
        out.recycled = core_->recycled;
        return out;
    }

private:
    struct FulfilOutcome {
        bool accepted = false;  ///< the slot took this value/error
        bool notify = false;    ///< a live consumer is waiting on it
    };

    FulfilOutcome fulfil_locked(const Channel& ch, std::optional<T>&& value,
                                std::exception_ptr&& error) REQUIRES(core_->m) {
        if (ch.idx >= core_->slots.size()) return {};
        auto& slot = core_->slots[ch.idx];
        if (slot.gen != ch.gen || slot.produced) return {};
        slot.value = std::move(value);
        slot.error = std::move(error);
        slot.produced = true;
        slot.producer_live = false;
        if (!slot.consumer_live) {
            core_->recycle_locked(ch.idx);  // consumer abandoned: no one to wake
            return {true, false};
        }
        return {true, true};
    }

    bool fulfil(const Channel& ch, std::optional<T> value, std::exception_ptr error) {
        FulfilOutcome out;
        {
            MutexLock lock(core_->m);
            out = fulfil_locked(ch, std::move(value), std::move(error));
        }
        if (out.notify) core_->ready.notify_all();
        return out.accepted;
    }

    std::shared_ptr<slab_detail::SlabCore<T>> core_;
};

}  // namespace varmor::util
