#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "obs/metrics.h"

namespace varmor::util {

namespace {

// Set while a thread is executing pool work; nested parallel sections run
// inline instead of deadlocking on the (busy) worker pool.
thread_local bool t_in_pool_section = false;

/// The pool.* instruments, resolved in the process registry on first use.
struct PoolCounters {
    obs::Counter& chunks = obs::Registry::global().counter("pool.chunks");
    obs::Counter& steals = obs::Registry::global().counter("pool.steals");
    obs::Counter& sections = obs::Registry::global().counter("pool.sections");
    obs::Gauge& queue_high_water = obs::Registry::global().gauge("pool.queue_high_water");
};

PoolCounters& pool_counters() {
    static PoolCounters counters;
    return counters;
}

}  // namespace

/// One parallel section: `nunits` work units dealt contiguously across
/// `width` per-slot queues. Claiming is the only synchronized step — a unit's
/// identity (and therefore its result slot) is fixed at deal time; stealing
/// only moves WHO runs it. Owners pop from the head of their own queue,
/// thieves pop from the tail of a victim's, so the initial contiguous order
/// survives as long as possible (cache-friendly for the chunked engines).
struct ThreadPool::Section {
    struct SlotQueue {
        Mutex m;
        int next GUARDED_BY(m) = 0;  ///< owner claims from here
        int end GUARDED_BY(m) = 0;   ///< thieves claim from here (exclusive)
    };

    explicit Section(int width, int nunits, std::function<void(int unit)> fn)
        : queues(new SlotQueue[static_cast<std::size_t>(width)]),
          width_(width),
          unit(std::move(fn)) {
        remaining.store(nunits, std::memory_order_relaxed);
        for (int w = 0; w < width; ++w) {
            const long long lo = static_cast<long long>(nunits) * w / width;
            const long long hi = static_cast<long long>(nunits) * (w + 1) / width;
            MutexLock lock(queues[w].m);
            queues[w].next = static_cast<int>(lo);
            queues[w].end = static_cast<int>(hi);
        }
    }

    /// Claim one unit for `slot`: own queue head first, then victim tails in
    /// ring order from slot+1. Returns -1 when no unclaimed unit remains;
    /// sets `stolen` when the unit came from another slot's queue.
    int claim(int slot, bool& stolen) {
        stolen = false;
        {
            MutexLock lock(queues[slot].m);
            if (queues[slot].next < queues[slot].end) return queues[slot].next++;
        }
        for (int k = 1; k < width_; ++k) {
            const int v = (slot + k) % width_;
            MutexLock lock(queues[v].m);
            if (queues[v].next < queues[v].end) {
                stolen = true;
                return --queues[v].end;
            }
        }
        return -1;
    }

    std::unique_ptr<SlotQueue[]> queues;
    int width_;
    std::function<void(int unit)> unit;
    std::atomic<int> remaining;
    Mutex m;
    CondVar done;
    std::exception_ptr error GUARDED_BY(m);
};

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 0; i < threads_ - 1; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stop_ && tasks_.empty()) wake_.wait(mutex_);
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

int ThreadPool::default_threads() {
    if (const char* env = std::getenv("VARMOR_NUM_THREADS")) {
        // The whole value must be a positive decimal integer. One too large
        // for `unsigned` (out of range for from_chars) clamps to 64 as well.
        const char* last = env + std::strlen(env);
        unsigned n = 0;
        const auto [ptr, ec] = std::from_chars(env, last, n);
        if (ec == std::errc::result_out_of_range) n = 64;
        if (ptr == last && n >= 1) return static_cast<int>(std::min(n, 64u));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min(hw, 64u));
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(default_threads());
    return pool;
}

void ThreadPool::section_worker(const std::shared_ptr<Section>& section, int slot) {
    const bool was = t_in_pool_section;
    t_in_pool_section = true;
    PoolCounters& counters = pool_counters();
    for (;;) {
        bool stolen = false;
        const int u = section->claim(slot, stolen);
        if (u < 0) break;
        counters.chunks.add();
        if (stolen) counters.steals.add();
        try {
            section->unit(u);
        } catch (...) {
            MutexLock lock(section->m);
            if (!section->error) section->error = std::current_exception();
        }
        if (section->remaining.fetch_sub(1) == 1) {
            MutexLock lock(section->m);
            section->done.notify_all();
        }
    }
    t_in_pool_section = was;
}

void ThreadPool::run_section(const std::shared_ptr<Section>& section) {
    pool_counters().sections.add();
    {
        // Deepest dealt queue == the imbalance the stealing scheduler starts
        // from; every queue was just dealt, so reading under each queue's own
        // lock is uncontended.
        int deepest = 0;
        for (int w = 0; w < section->width_; ++w) {
            MutexLock lock(section->queues[w].m);
            deepest = std::max(deepest, section->queues[w].end - section->queues[w].next);
        }
        pool_counters().queue_high_water.raise(deepest);
    }

    {
        MutexLock lock(mutex_);
        // One claim loop per worker slot. A slot task that starts after the
        // section drained finds every queue empty and returns — `section`
        // stays alive through the captured shared_ptr either way.
        for (int slot = 1; slot < section->width_; ++slot)
            tasks_.push([this, section, slot] { section_worker(section, slot); });
    }
    wake_.notify_all();
    section_worker(section, 0);  // the caller is worker slot 0

    MutexLock lock(section->m);
    while (section->remaining.load() != 0) section->done.wait(section->m);
    if (section->error) std::rethrow_exception(section->error);
}

int ThreadPool::width(int threads) const {
    if (t_in_pool_section) return 1;
    return threads <= 0 ? threads_ : std::min(threads, threads_);
}

int ThreadPool::chunks(int units, int threads) const {
    const int w = width(threads);
    return std::min(units, w == 1 ? 1 : w * kChunksPerWorker);
}

void ThreadPool::parallel_chunks(int begin, int end,
                                 const std::function<void(int, int, int)>& fn, int threads) {
    const int len = end - begin;
    const int n = chunks(len, threads);
    if (n <= 0) return;
    if (n == 1) {
        // Inline (width 1, a nested section or a one-element range): one
        // chunk spanning the range. Per-item results never depend on chunk
        // boundaries (the bit-identity contract).
        fn(0, begin, end);
        return;
    }
    run_section(std::make_shared<Section>(width(threads), n, [&fn, begin, len, n](int r) {
        const int b = begin + static_cast<int>(static_cast<long long>(len) * r / n);
        const int e = begin + static_cast<int>(static_cast<long long>(len) * (r + 1) / n);
        fn(r, b, e);
    }));
}

void ThreadPool::parallel_tasks(const std::vector<std::function<void()>>& tasks, int threads) {
    const int n = static_cast<int>(tasks.size());
    if (n <= 1 || width(threads) == 1) {
        for (const auto& task : tasks) task();
        return;
    }
    run_section(std::make_shared<Section>(
        width(threads), n, [&tasks](int u) { tasks[static_cast<std::size_t>(u)](); }));
}

void ThreadPool::reset_process_counters() {
    PoolCounters& counters = pool_counters();
    counters.chunks.reset();
    counters.steals.reset();
    counters.sections.reset();
    counters.queue_high_water.reset();
}

}  // namespace varmor::util
