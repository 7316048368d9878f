// The serving layer's concurrency primitives in isolation: the bounded
// MpmcQueue admission semantics (kOk / kFull / kClosed, item ownership on
// rejection, force markers), SingleFlight coalescing + failure broadcast +
// waiter deadlines, Deadline arithmetic, and FileLock exclusivity.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/file_lock.h"
#include "util/mpmc_queue.h"
#include "util/single_flight.h"

namespace varmor::util {
namespace {

TEST(MpmcQueue, BoundedPushShedsAtCapacityWithoutConsumingItem) {
    MpmcQueue<std::string> q(2);
    std::string a = "a", b = "b", c = "c";
    EXPECT_EQ(q.try_push(a), PushStatus::kOk);
    EXPECT_EQ(q.try_push(b), PushStatus::kOk);

    // At capacity: shed — and the REJECTED item is not moved-from, so the
    // caller can still fail its promise cleanly.
    EXPECT_EQ(q.try_push(c), PushStatus::kFull);
    EXPECT_EQ(c, "c");

    // Control markers bypass the capacity bound...
    EXPECT_EQ(q.try_push(c, /*force=*/true), PushStatus::kOk);

    // ...but nothing bypasses close().
    q.close();
    std::string d = "d";
    EXPECT_EQ(q.try_push(d, /*force=*/true), PushStatus::kClosed);
    EXPECT_EQ(d, "d");

    // The tail stays drainable after close, in arrival order; the shed push
    // enqueued nothing.
    EXPECT_EQ(q.pop().value(), "a");
    EXPECT_EQ(q.pop().value(), "b");
    EXPECT_EQ(q.pop().value(), "c");
    EXPECT_EQ(q.pop(), std::nullopt);  // closed and drained: no block
}

TEST(MpmcQueue, ManyProducersManyConsumersLoseNothing) {
    const int kProducers = 4, kConsumers = 3, kPerProducer = 200;
    MpmcQueue<int> q;
    std::atomic<long> sum{0};
    std::atomic<int> count{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&] {
            while (auto v = q.pop()) {
                sum += *v;
                ++count;
            }
        });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * kPerProducer + i;
                EXPECT_EQ(q.try_push(v), PushStatus::kOk);
            }
        });
    for (auto& t : producers) t.join();
    q.close();
    for (auto& t : consumers) t.join();

    const long n = kProducers * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(SingleFlight, ConcurrentCallersCoalesceOntoOneBuild) {
    SingleFlight<int, int> flight;
    std::atomic<int> builds{0};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    const int kCallers = 6;
    std::vector<std::future<int>> results;
    std::atomic<int> entered{0};
    for (int i = 0; i < kCallers; ++i)
        results.push_back(std::async(std::launch::async, [&] {
            ++entered;
            return flight.run(42, [&] {
                ++builds;
                gate.wait();  // hold the flight open so everyone piles on
                return 7;
            });
        }));
    // Wait until every caller is inside run() (winner building, rest waiting).
    while (entered.load() < kCallers) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(flight.in_flight(), 1);
    release.set_value();

    for (auto& r : results) EXPECT_EQ(r.get(), 7);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(flight.in_flight(), 0);

    // The flight is forgotten once done: a later run() re-executes.
    EXPECT_EQ(flight.run(42, [&] { ++builds; return 8; }), 8);
    EXPECT_EQ(builds.load(), 2);
}

TEST(SingleFlight, WinnerFailureReachesEveryWaiterAndClearsTheFlight) {
    SingleFlight<std::string, int> flight;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> winner_in{false};

    auto winner = std::async(std::launch::async, [&] {
        return flight.run("k", [&]() -> int {
            winner_in = true;
            gate.wait();
            throw Error("build exploded");
        });
    });
    while (!winner_in.load()) std::this_thread::yield();
    auto waiter = std::async(std::launch::async,
                             [&] { return flight.run("k", [] { return 1; }); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.set_value();

    EXPECT_THROW(winner.get(), Error);
    EXPECT_THROW(waiter.get(), Error);  // the winner's failure, shared
    EXPECT_EQ(flight.in_flight(), 0);

    // The failed flight left nothing behind: the key builds fresh.
    EXPECT_EQ(flight.run("k", [] { return 5; }), 5);
}

TEST(SingleFlight, WaiterDeadlineExpiresWithoutDisturbingTheWinner) {
    SingleFlight<int, int> flight;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> winner_in{false};

    auto winner = std::async(std::launch::async, [&] {
        return flight.run(1, [&] {
            winner_in = true;
            gate.wait();
            return 9;
        });
    });
    while (!winner_in.load()) std::this_thread::yield();

    EXPECT_THROW(flight.run(1, [] { return 0; }, Deadline::after_ms(10.0)),
                 DeadlineExceeded);
    release.set_value();
    EXPECT_EQ(winner.get(), 9);  // the impatient waiter cost the winner nothing
}

TEST(Deadline, DefaultNeverExpiresAndAfterMsArithmetic) {
    const Deadline never;
    EXPECT_FALSE(never.is_set());
    EXPECT_FALSE(never.expired());
    EXPECT_FALSE(Deadline::never().is_set());

    EXPECT_TRUE(Deadline::after_ms(-1.0).expired());
    EXPECT_TRUE(Deadline::after_ms(0.0).expired());

    const Deadline soon = Deadline::after_ms(30.0);
    EXPECT_TRUE(soon.is_set());
    EXPECT_FALSE(soon.expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(soon.expired());
}

TEST(FileLock, ExclusiveAcrossDescriptorsAndReleasable) {
    const std::string path = ::testing::TempDir() + "/varmor_file_lock_test";
    std::filesystem::remove(path);

    FileLock held = FileLock::acquire(path);
    ASSERT_TRUE(held.locked());

    // flock exclusivity is per open descriptor, so a second acquire through
    // a fresh descriptor conflicts even inside one process.
    FileLock second = FileLock::try_acquire(path);
    EXPECT_FALSE(second.locked());

    held.release();
    EXPECT_FALSE(held.locked());
    held.release();  // idempotent

    FileLock third = FileLock::try_acquire(path);
    EXPECT_TRUE(third.locked());

    // Move transfers ownership; the lock file itself is never deleted.
    FileLock moved = std::move(third);
    EXPECT_TRUE(moved.locked());
    EXPECT_FALSE(third.locked());
    moved.release();
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(FileLock, BlockedAcquireProceedsOnceHolderReleases) {
    const std::string path = ::testing::TempDir() + "/varmor_file_lock_block";
    std::filesystem::remove(path);

    FileLock held = FileLock::acquire(path);
    std::atomic<bool> acquired{false};
    std::thread waiter([&] {
        FileLock lock = FileLock::acquire(path);  // blocks until release below
        acquired = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(acquired.load());
    held.release();
    waiter.join();
    EXPECT_TRUE(acquired.load());
}

}  // namespace
}  // namespace varmor::util
