// Fixed-size thread pool and the seeded fan-out built on it.
//
// Design points:
//   * No work stealing, no task graph — a mutex-protected FIFO is plenty for
//     coarse-grained jobs (each SCG start runs for milliseconds to seconds).
//     The exact solver's block search, which does steal, keeps its own deques
//     (util/work_deque.hpp) and only borrows the pool's workers.
//   * Deterministic single-thread fallback: a pool of size ≤ 1 runs every job
//     inline on the calling thread, in submission order, so `UCP_THREADS=1`
//     reproduces the serial execution exactly (no hidden worker thread).
//   * `default_threads()` honours the `UCP_THREADS` environment variable so
//     every binary gets a thread knob without plumbing a flag through.
//
// parallel_map() is the one fan-out every independent-task layer uses (SCG
// multi-start, the portfolio's RWLS polish, a batch of pipeline runs):
// results land in per-index slots, so the answer is bit-identical for any
// thread count as long as each task depends only on its index.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace ucp {

class ThreadPool {
public:
    /// Spawns `num_threads` workers. 0 or 1 means "no workers": jobs run
    /// inline on the submitting thread.
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads (0 in inline mode).
    [[nodiscard]] unsigned size() const noexcept {
        return static_cast<unsigned>(workers_.size());
    }

    /// Enqueues a job. In inline mode the job runs before submit() returns.
    void submit(std::function<void()> job);

    /// Blocks until every submitted job has finished.
    void wait();

    /// Runs fn(0) … fn(n-1), distributing indices over the pool; blocks
    /// until all are done. In inline mode runs them in order.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// std::thread::hardware_concurrency with a floor of 1.
    static unsigned hardware_threads() noexcept;

    /// Thread count to use when the caller does not specify one: the
    /// `UCP_THREADS` environment variable if set to a positive integer,
    /// otherwise hardware_threads().
    static unsigned default_threads() noexcept;

    /// The thread-count rule of every solver option: `requested` ≤ 0 means
    /// default_threads(), and the result is capped at `tasks` — a pool
    /// never holds more workers than there are jobs for it.
    static unsigned resolve_threads(
        int requested,
        std::size_t tasks = std::numeric_limits<std::size_t>::max()) noexcept;

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable job_ready_;
    std::condition_variable all_done_;
    std::size_t in_flight_ = 0;  // queued + currently executing
    bool stop_ = false;
};

/// Runs fn(0) … fn(n-1) on ThreadPool::resolve_threads(num_threads, n)
/// workers and returns the results in index order.
template <class Fn>
auto parallel_map(std::size_t n, int num_threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    std::vector<std::invoke_result_t<Fn&, std::size_t>> out(n);
    ThreadPool pool(ThreadPool::resolve_threads(num_threads, n));
    pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

}  // namespace ucp
