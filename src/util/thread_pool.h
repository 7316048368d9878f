#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace varmor::util {

/// Fixed-size thread pool for the data-parallel evaluation sweeps (frequency
/// points, Monte-Carlo samples, corner grids) and the serving layer's mixed
/// batch lanes. Scheduling is DETERMINISTIC WORK-STEALING: a parallel section
/// splits its range into more chunks than workers (oversubscription), deals
/// them out contiguously, and idle workers steal from the tail of a victim's
/// queue. The chunk -> (rank, chunk_begin, chunk_end) mapping is a pure
/// function of (range, chunk count), NEVER of which worker ran it, so every
/// engine built on the pool stays bit-identical to a serial run — only the
/// claim order is dynamic, which is what absorbs skewed per-item costs
/// (per-sample Arnoldi counts, mixed transfer/transient lanes).
///
/// The pool also owns the parallelism decision. Every entry point that fans
/// out takes an `int threads` and passes it on to parallel_chunks /
/// parallel_tasks on global(), where it is the section's WIDTH: <= 0 = the
/// whole pool, 1 = inline on the caller, n > 1 = min(n, size()) workers. No
/// section creates a thread; a section started inside another runs inline.
class ThreadPool {
public:
    /// Chunks dealt per worker in a parallel section. 1 would reproduce the
    /// old static-chunk schedule; 4 gives the stealing scheduler enough slack
    /// to absorb a 4x per-chunk cost skew while keeping per-chunk overhead
    /// (one mutex op to claim) negligible against varmor's chunk bodies.
    static constexpr int kChunksPerWorker = 4;

    /// Spawns `threads - 1` workers (the caller participates as worker slot 0
    /// during parallel sections). threads <= 1 means fully inline serial
    /// execution. Library code runs on global(); pools of a chosen size are
    /// for the pool's own tests.
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Degree of parallelism (>= 1).
    int size() const { return threads_; }

    /// Process-wide pool, sized by VARMOR_NUM_THREADS when it is a positive
    /// decimal integer (clamped to 64) and by
    /// std::thread::hardware_concurrency() otherwise. Built on first use.
    static ThreadPool& global();

    /// The size global() would use.
    static int default_threads();

    /// Chunk count of a section over `units` work units at width `threads`
    /// (see the class comment): min(units, width * kChunksPerWorker), or 1
    /// when the width is 1. The one place the count is decided, so callers
    /// that cut their own task lists oversubscribe exactly as sections do.
    int chunks(int units, int threads = 0) const;

    /// Splits [begin, end) into chunks(end - begin, threads) contiguous
    /// chunks and runs fn(rank, chunk_begin, chunk_end) for each, in
    /// parallel. `rank` is the chunk index in [0, chunks) — a pure function
    /// of the range and the width, stable across runs and across which
    /// worker claims the chunk, so callers may key per-chunk scratch on it.
    /// A section of one chunk runs inline on the caller. Blocks until every
    /// chunk finished; the first exception thrown by any chunk is rethrown
    /// on the caller.
    void parallel_chunks(int begin, int end,
                         const std::function<void(int rank, int chunk_begin, int chunk_end)>& fn,
                         int threads = 0);

    /// Heterogeneous units: runs every task in `tasks`, work-stealing across
    /// `threads` of the pool exactly like parallel_chunks (each task is one
    /// chunk; at width 1, or with one task, they run inline in index order).
    /// The serving layer uses this to overlap a flush's dense transfer
    /// chunks with its sparse transient corners on the same workers. Blocks
    /// until all tasks finished; the first exception is rethrown (tasks that
    /// must not poison their batch catch internally).
    void parallel_tasks(const std::vector<std::function<void()>>& tasks, int threads = 0);

    /// Every pool counts its scheduled sections in obs::Registry::global():
    /// `pool.chunks` claimed, `pool.steals` (claims from another slot's
    /// queue), `pool.sections` and the gauge `pool.queue_high_water` (deepest
    /// queue dealt at a section start: the stealer's exposure to imbalance).
    /// Inline execution counts nothing. This zeroes them, as a registry reset
    /// does.
    static void reset_process_counters();

private:
    struct Section;

    /// Workers a section started on this thread with `threads` gets.
    int width(int threads) const;
    void worker_loop();
    void run_section(const std::shared_ptr<Section>& section);
    void section_worker(const std::shared_ptr<Section>& section, int slot);

    int threads_ = 1;
    /// Written once in the constructor, joined in the destructor — never
    /// touched concurrently, so deliberately unguarded.
    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar wake_;
    std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
    bool stop_ GUARDED_BY(mutex_) = false;
};

}  // namespace varmor::util
