#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/thread_annotations.h"

namespace varmor::util {

/// Outcome of a non-blocking enqueue attempt — admission control's verdict,
/// reported as data instead of an exception so a producer racing shutdown or
/// a traffic spike gets a value it can turn into a cleanly failed future.
enum class PushStatus {
    kOk,      ///< item enqueued
    kFull,    ///< bounded queue at capacity — shed the work
    kClosed,  ///< queue closed — the service is tearing down
};

/// Bounded-complexity multi-producer/multi-consumer blocking queue: the
/// ingress lane of the serving layer. Many logical clients push queries
/// concurrently; the batcher's flusher drains them in arrival order (the
/// lock serializes pushes, so "arrival order" is well defined): it blocks in
/// pop() for one item, then try_pop()s whatever else has queued.
///
/// A non-zero `capacity` bounds the backlog: try_push reports kFull once
/// `capacity` items are pending, which is the admission-control half of the
/// serving layer's overload story (shed at ingress with a failed future,
/// never an unbounded queue that converts overload into unbounded latency).
///
/// close() ends the stream: pending items remain poppable (consumers drain
/// the tail), further pushes report kClosed, and once the queue is empty
/// every blocked pop returns std::nullopt.
/// Destruction does not require close(); the owner is responsible for
/// joining its consumers first.
template <class T>
class MpmcQueue {
public:
    /// capacity = 0: unbounded (try_push never reports kFull).
    explicit MpmcQueue(std::size_t capacity = 0) : capacity_(capacity) {}
    MpmcQueue(const MpmcQueue&) = delete;
    MpmcQueue& operator=(const MpmcQueue&) = delete;

    /// Non-blocking, non-throwing enqueue: moves from `item` ONLY on kOk (on
    /// kFull/kClosed the caller keeps it, promise and all, to fail cleanly).
    /// `force` bypasses the capacity bound but not close() — for control
    /// markers (flush acks) that must never be shed by admission control.
    PushStatus try_push(T& item, bool force = false) EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            if (closed_) return PushStatus::kClosed;
            if (!force && capacity_ != 0 && items_.size() >= capacity_)
                return PushStatus::kFull;
            items_.push_back(std::move(item));
        }
        ready_.notify_one();
        return PushStatus::kOk;
    }

    /// Blocks until an item is available (returns it) or the queue is closed
    /// AND drained (returns std::nullopt).
    std::optional<T> pop() EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        while (items_.empty() && !closed_) ready_.wait(mutex_);
        return take_locked();
    }

    /// Non-blocking pop.
    std::optional<T> try_pop() EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        if (items_.empty()) return std::nullopt;
        return take_unchecked();
    }

    /// Ends the stream (idempotent); wakes every blocked consumer.
    void close() EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

private:
    std::optional<T> take_locked() REQUIRES(mutex_) {
        if (items_.empty()) return std::nullopt;  // woken by close()
        return take_unchecked();
    }

    std::optional<T> take_unchecked() REQUIRES(mutex_) {
        std::optional<T> out(std::move(items_.front()));
        items_.pop_front();
        return out;
    }

    std::size_t capacity_ = 0;
    Mutex mutex_;
    CondVar ready_;
    std::deque<T> items_ GUARDED_BY(mutex_);
    bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace varmor::util
