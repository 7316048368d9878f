#pragma once

// Holds QueryBatcher flushers at their `query_batcher.flush` fault point, so
// a test decides what queues behind a batch before the next flush takes it.
// The flusher never waits for more work, which leaves a held flusher the only
// deterministic way to compose a batch.

#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "util/fault_injection.h"

namespace varmor::testing {

/// Arms `query_batcher.flush` with a handler that waits on a gate: every
/// batch of EVERY batcher in the process stops there (counted, not yet
/// executed) until release(). Needs VARMOR_FAULT_INJECTION (on by default).
///
/// Use it from the test thread only:
///   - construct it after any FaultInjector::instance().clear(), which would
///     disarm it;
///   - put a plug at the gate (a query, or plug() below) and wait for held();
///   - submit what the held batch should queue up;
///   - release() before any blocking flush() or get() on the test thread.
/// The destructor releases the gate, then disarms the point.
class HeldFlusher {
public:
    HeldFlusher()
        : gate_(open_.get_future().share()),
          baseline_(util::FaultInjector::instance().hits(kPoint)) {
        util::FaultInjector::instance().arm(
            kPoint, [gate = gate_](const std::string&, const std::string&) {
                gate.wait();
            });
    }

    ~HeldFlusher() {
        release();
        util::FaultInjector::instance().disarm(kPoint);
    }

    HeldFlusher(const HeldFlusher&) = delete;
    HeldFlusher& operator=(const HeldFlusher&) = delete;

    /// True once `n` batches have reached the gate since construction; false
    /// after 30 s, so a test that never plugs the gate fails instead of
    /// hanging.
    bool held(long n = 1) const {
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (util::FaultInjector::instance().hits(kPoint) - baseline_ < n) {
            if (std::chrono::steady_clock::now() > give_up) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }

    /// Lets every held batch, and every later one, through (idempotent).
    void release() {
        if (released_) return;
        released_ = true;
        open_.set_value();
    }

private:
    static constexpr const char* kPoint = "query_batcher.flush";

    std::promise<void> open_;
    std::shared_future<void> gate_;
    long baseline_;
    bool released_ = false;
};

/// A plug that adds a batch but no query: `target.flush()` on a helper
/// thread, whose empty batch waits at the gate. Declare the returned future
/// BEFORE the HeldFlusher, so the gate opens before the future's destructor
/// waits for the flush.
template <class Flushable>
std::future<void> plug(Flushable& target) {
    return std::async(std::launch::async, [&target] { target.flush(); });
}

}  // namespace varmor::testing
