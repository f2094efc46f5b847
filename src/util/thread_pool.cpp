#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace ucp {

unsigned hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

unsigned default_threads() noexcept {
    if (const char* env = std::getenv("UCP_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) return static_cast<unsigned>(v);
    }
    return hardware_threads();
}

unsigned resolve_threads(int requested, std::size_t tasks) noexcept {
    const unsigned want = requested <= 0 ? default_threads()
                                         : static_cast<unsigned>(requested);
    return static_cast<unsigned>(std::min<std::size_t>(want, tasks));
}

void parallel_for(std::size_t n, int num_threads,
                  const std::function<void(std::size_t)>& fn) {
    const unsigned workers = resolve_threads(num_threads, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::size_t failed_index = n;  // guarded by failure_mutex
    std::exception_ptr failure;    // guarded by failure_mutex
    const auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                // Indices go out in ascending order, so every index below i
                // is already running or done: stopping the hand-out here
                // still lets the lowest failing index be recorded.
                next.store(n);
                const std::lock_guard<std::mutex> lock(failure_mutex);
                if (i < failed_index) {
                    failed_index = i;
                    failure = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (unsigned t = 0; t < workers; ++t) threads.emplace_back(drain);
    } catch (...) {
        // A thread failed to start: the running ones must still be joined.
        next.store(n);
        for (std::thread& t : threads) t.join();
        throw;
    }
    for (std::thread& t : threads) t.join();
    if (failure) std::rethrow_exception(failure);
}

}  // namespace ucp
