#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace ucp {

ThreadPool::ThreadPool(unsigned num_threads) {
    if (num_threads <= 1) return;  // inline mode
    workers_.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    job_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
    if (workers_.empty()) {
        job();
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push(std::move(job));
        ++in_flight_;
    }
    job_ready_.notify_one();
}

void ThreadPool::wait() {
    if (workers_.empty()) return;
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
    if (workers_.empty()) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) submit([&fn, i] { fn(i); });
    wait();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            job_ready_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
            if (jobs_.empty()) return;  // stop_ set and queue drained
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        job();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (--in_flight_ == 0) all_done_.notify_all();
        }
    }
}

unsigned ThreadPool::hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

unsigned ThreadPool::default_threads() noexcept {
    if (const char* env = std::getenv("UCP_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) return static_cast<unsigned>(v);
    }
    return hardware_threads();
}

unsigned ThreadPool::resolve_threads(int requested, std::size_t tasks) noexcept {
    const unsigned want = requested <= 0 ? default_threads()
                                         : static_cast<unsigned>(requested);
    return static_cast<unsigned>(std::min<std::size_t>(want, tasks));
}

}  // namespace ucp
