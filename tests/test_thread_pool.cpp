// The one scheduler behind every fan-out (SCG multi-start, the portfolio's
// RWLS polish, a batch of pipeline runs, the exact solver's root tasks).
// Exercises parallel_for coverage, the inline (≤1 thread) fallback, the
// lowest-failing-index exception rule, parallel_map's index order and the
// thread-count rule. This test is the main TSan target (scripts/tier1.sh
// builds it with -DUCP_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (const int threads : {0, 1, 2, 4, 8}) {
        const std::size_t n = 500;
        std::vector<std::atomic<int>> hits(n);
        ucp::parallel_for(n, threads,
                          [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
}

TEST(ParallelFor, InlineModeRunsInOrderOnTheCallingThread) {
    // ≤1 thread: indices run on the calling thread, strictly in order — the
    // deterministic fallback documented in thread_pool.hpp.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    ucp::parallel_for(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(static_cast<int>(i));
    });
    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ParallelFor, ZeroAndOneItems) {
    int calls = 0;
    ucp::parallel_for(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    ucp::parallel_for(1, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, LowestFailingIndexIsRethrownAtEveryThreadCount) {
    // Indices 7 and 40 throw. Index 7 sleeps first, so with two or more
    // threads index 40 usually throws before it: the rule is the lowest
    // failing index, not the first exception, which is what the inline run
    // throws too.
    for (const int threads : {1, 2, 4, 8}) {
        std::string caught;
        try {
            ucp::parallel_for(64, threads, [](std::size_t i) {
                if (i == 7) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(20));
                    throw std::runtime_error("7");
                }
                if (i == 40) throw std::runtime_error("40");
            });
        } catch (const std::runtime_error& e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "7") << "threads=" << threads;
    }
}

TEST(ParallelMap, ResultsInIndexOrder) {
    for (const int threads : {1, 2, 4, 8}) {
        // Low indices finish last, so completion order differs from index
        // order whenever more than one thread runs.
        const std::vector<std::size_t> out =
            ucp::parallel_map(64, threads, [](std::size_t i) {
                std::this_thread::sleep_for(std::chrono::microseconds(64 - i));
                return i * i;
            });
        ASSERT_EQ(out.size(), 64u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i) << "threads=" << threads;
    }
}

TEST(ThreadCount, EnvOverrideAndTaskCap) {
    // UCP_THREADS is read per call, so we can test the override in-process.
    ::setenv("UCP_THREADS", "3", 1);
    EXPECT_EQ(ucp::default_threads(), 3u);
    EXPECT_EQ(ucp::resolve_threads(0), 3u);      // ≤ 0 → default_threads()
    EXPECT_EQ(ucp::resolve_threads(-1, 2), 2u);  // capped at the task count
    EXPECT_EQ(ucp::resolve_threads(5, 100), 5u);
    EXPECT_EQ(ucp::resolve_threads(5, 0), 0u);
    ::setenv("UCP_THREADS", "0", 1);  // invalid → hardware fallback
    EXPECT_GE(ucp::default_threads(), 1u);
    ::unsetenv("UCP_THREADS");
    EXPECT_EQ(ucp::default_threads(), ucp::hardware_threads());
}

TEST(ParallelFor, RepeatedCallsStartAndJoinCleanly) {
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> n{0};
        ucp::parallel_for(8, 2, [&](std::size_t) { n.fetch_add(1); });
        EXPECT_EQ(n.load(), 8);
    }  // every call joins its threads; TSan verifies no races on teardown
}

}  // namespace
