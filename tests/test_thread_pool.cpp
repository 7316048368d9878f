#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace varmor::util {
namespace {

/// fn(i) for every i in [begin, end), chunked by the pool.
void for_each_index(ThreadPool& pool, int begin, int end, const std::function<void(int)>& fn) {
    pool.parallel_chunks(begin, end, [&fn](int, int b, int e) {
        for (int i = b; i < e; ++i) fn(i);
    });
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    for_each_index(pool, 0, 257, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
    // The work-stealing pool oversubscribes: size() * kChunksPerWorker chunks
    // (capped by the range length), contiguous and deterministic. rank -> [b, e)
    // must be a pure function of the range, never of which worker ran it.
    ThreadPool pool(3);
    const int expected = 3 * ThreadPool::kChunksPerWorker;
    std::mutex m;
    std::vector<std::tuple<int, int, int>> chunks;
    pool.parallel_chunks(5, 47, [&](int rank, int b, int e) {
        EXPECT_GE(rank, 0);
        EXPECT_LT(rank, expected);
        std::lock_guard<std::mutex> lock(m);
        chunks.emplace_back(rank, b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), static_cast<std::size_t>(expected));
    EXPECT_EQ(std::get<1>(chunks.front()), 5);
    EXPECT_EQ(std::get<2>(chunks.back()), 47);
    for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
        // Ranks are dense and chunks tile the range in rank order.
        EXPECT_EQ(std::get<0>(chunks[i]) + 1, std::get<0>(chunks[i + 1]));
        EXPECT_EQ(std::get<2>(chunks[i]), std::get<1>(chunks[i + 1]));
    }
}

TEST(ThreadPool, ShortRangeGetsOneChunkPerElement) {
    ThreadPool pool(4);
    std::mutex m;
    std::vector<std::pair<int, int>> chunks;
    pool.parallel_chunks(0, 3, [&](int, int b, int e) {
        std::lock_guard<std::mutex> lock(m);
        chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(chunks[static_cast<std::size_t>(i)].first, i);
        EXPECT_EQ(chunks[static_cast<std::size_t>(i)].second, i + 1);
    }
}

TEST(ThreadPool, SchedulingStatsCountChunksAndSections) {
    ThreadPool pool(3);
    ThreadPool::reset_process_counters();
    for_each_index(pool, 0, 100, [](int) {});
    const obs::Snapshot stats = obs::Registry::global().snapshot();
    EXPECT_EQ(stats.counter("pool.chunks"), 3LL * ThreadPool::kChunksPerWorker);
    EXPECT_EQ(stats.counter("pool.sections"), 1);
    // Every queue was dealt kChunksPerWorker chunks.
    EXPECT_EQ(stats.gauge("pool.queue_high_water"), ThreadPool::kChunksPerWorker);
    EXPECT_GE(stats.counter("pool.steals"), 0);
}

TEST(ThreadPool, StealingRebalancesASkewedSection) {
    // One pathological chunk (rank 0) holds its worker for the whole section;
    // the other workers must steal rank 0's dealt-but-unstarted chunks, so
    // the section finishes and at least one steal is recorded. Every rank
    // still runs exactly once — stealing moves workers, not work.
    ThreadPool pool(2);
    ThreadPool::reset_process_counters();
    std::atomic<int> others_done{0};
    const int chunks = 2 * ThreadPool::kChunksPerWorker;
    std::vector<std::atomic<int>> ran(static_cast<std::size_t>(chunks));
    for (auto& r : ran) r.store(0);
    pool.parallel_chunks(0, chunks, [&](int rank, int, int) {
        ran[static_cast<std::size_t>(rank)].fetch_add(1);
        if (rank == 0) {
            // Busy-wait until every other chunk completed somewhere.
            while (others_done.load() < chunks - 1) std::this_thread::yield();
        } else {
            others_done.fetch_add(1);
        }
    });
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
    EXPECT_GE(obs::Registry::global().snapshot().counter("pool.steals"), 1);
}

TEST(ThreadPool, ParallelTasksRunEveryTaskOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(37);
    for (auto& h : hits) h.store(0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i)
        tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
    pool.parallel_tasks(tasks);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelTasksPropagateExceptions) {
    ThreadPool pool(4);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.push_back([i] {
            if (i == 11) throw Error("task boom");
        });
    EXPECT_THROW(pool.parallel_tasks(tasks), Error);
    // Pool must still be usable afterwards.
    std::atomic<int> count{0};
    for_each_index(pool, 0, 8, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, RunTasksSerialPolicyRunsInlineInOrder) {
    ThreadPool pool(4);
    std::vector<int> order;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i) tasks.push_back([&order, i] { order.push_back(i); });
    pool.parallel_tasks(tasks, 1);
    ASSERT_EQ(order.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SerialPoolRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    const auto caller = std::this_thread::get_id();
    int calls = 0;
    for_each_index(pool, 0, 10, [&](int) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;  // safe: inline execution
    });
    EXPECT_EQ(calls, 10);
}

TEST(ThreadPool, EmptyAndSingleElementRanges) {
    ThreadPool pool(4);
    int calls = 0;
    for_each_index(pool, 3, 3, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> acalls{0};
    for_each_index(pool, 7, 8, [&](int i) {
        EXPECT_EQ(i, 7);
        acalls.fetch_add(1);
    });
    EXPECT_EQ(acalls.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
    ThreadPool pool(4);
    EXPECT_THROW(
        for_each_index(pool, 0, 100, [](int i) {
            if (i == 63) throw Error("boom");
        }),
        Error);
    // Pool must still be usable afterwards.
    std::atomic<int> count{0};
    for_each_index(pool, 0, 8, [&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedParallelSectionsRunInlineWithoutDeadlock) {
    ThreadPool pool(2);
    std::atomic<int> total{0};
    for_each_index(pool, 0, 4, [&](int) {
        for_each_index(pool, 0, 4, [&](int) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
    ThreadPool& pool = ThreadPool::global();
    EXPECT_GE(pool.size(), 1);
    std::atomic<long> sum{0};
    for_each_index(pool, 1, 101, [&](int i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ThreadsCapTheSectionWidth) {
    // `threads` is the width of one section on the pool: <= 0 is all of it,
    // 1 is inline, n > 1 is at most min(n, size()) workers.
    ThreadPool pool(4);
    const int k = ThreadPool::kChunksPerWorker;
    EXPECT_EQ(pool.chunks(100, 0), 4 * k);
    EXPECT_EQ(pool.chunks(100, -3), 4 * k);
    EXPECT_EQ(pool.chunks(100, 1), 1);
    EXPECT_EQ(pool.chunks(100, 2), 2 * k);
    EXPECT_EQ(pool.chunks(100, 8), 4 * k);
    EXPECT_EQ(pool.chunks(3, 0), 3);

    // A width-2 section is dealt across two queues of k chunks each.
    ThreadPool::reset_process_counters();
    std::atomic<int> ran{0};
    pool.parallel_chunks(0, 100, [&](int, int, int) { ran.fetch_add(1); }, 2);
    EXPECT_EQ(ran.load(), 2 * k);
    const obs::Snapshot stats = obs::Registry::global().snapshot();
    EXPECT_EQ(stats.counter("pool.chunks"), 2 * k);
    EXPECT_EQ(stats.counter("pool.sections"), 1);
    EXPECT_EQ(stats.gauge("pool.queue_high_water"), k);

    // Width 1: one call, inline on the caller, over the whole range.
    const auto caller = std::this_thread::get_id();
    std::vector<std::tuple<int, int, int>> calls;
    pool.parallel_chunks(5, 47, [&](int rank, int b, int e) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        calls.emplace_back(rank, b, e);  // safe: inline execution
    }, 1);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls.front(), std::make_tuple(0, 5, 47));
}

TEST(ThreadPool, DefaultThreadsParsesTheEnvironmentStrictly) {
    // Only a whole positive decimal integer sizes the pool (clamped to 64,
    // however large); anything else falls back to the hardware default.
    const char* const saved = std::getenv("VARMOR_NUM_THREADS");
    const std::optional<std::string> restore =
        saved ? std::optional<std::string>(saved) : std::nullopt;
    unsetenv("VARMOR_NUM_THREADS");
    const int fallback = ThreadPool::default_threads();
    const std::pair<const char*, int> cases[] = {
        {"3", 3},         {"64", 64},       {"65", 64},       {"4294967297", 64},
        {"0", fallback},  {"-2", fallback}, {"8abc", fallback}, {"1e3", fallback},
        {" 3", fallback}, {"", fallback}};
    for (const auto& [value, expected] : cases) {
        setenv("VARMOR_NUM_THREADS", value, 1);
        EXPECT_EQ(ThreadPool::default_threads(), expected) << '"' << value << '"';
    }
    if (restore)
        setenv("VARMOR_NUM_THREADS", restore->c_str(), 1);
    else
        unsetenv("VARMOR_NUM_THREADS");
}

}  // namespace
}  // namespace varmor::util
