// The one scheduler: parallel_for over a fixed list of independent tasks,
// and the thread-count rule every fan-out uses.
//
// Design points:
//   * No pool object, no job queue, no work stealing: every caller knows its
//     whole task list up front (SCG starts, RWLS polish tasks, a batch of
//     pipeline runs) and the tasks are coarse (milliseconds to seconds
//     each), so threads taking indices in ascending order from one shared
//     counter balance the list. The exact solver, whose work appears
//     mid-search, runs one index per worker and shares work through its own
//     stack (solver/bnb.cpp).
//   * Deterministic single-thread fallback: with ≤ 1 thread every index runs
//     inline on the calling thread, in order, so `UCP_THREADS=1` reproduces
//     the serial execution exactly (no hidden worker thread).
//   * `default_threads()` honours the `UCP_THREADS` environment variable so
//     every binary gets a thread knob without plumbing a flag through.
//
// parallel_map() is the fan-out every independent-task layer uses: results
// land in per-index slots, so the answer is bit-identical for any thread
// count as long as each task depends only on its index.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

namespace ucp {

/// std::thread::hardware_concurrency with a floor of 1.
unsigned hardware_threads() noexcept;

/// Thread count to use when the caller does not specify one: the
/// `UCP_THREADS` environment variable if set to a positive integer,
/// otherwise hardware_threads().
unsigned default_threads() noexcept;

/// The thread-count rule of every solver option: `requested` ≤ 0 means
/// default_threads(), and the result is capped at `tasks` — a fan-out never
/// starts more threads than there are tasks for them.
unsigned resolve_threads(
    int requested,
    std::size_t tasks = std::numeric_limits<std::size_t>::max()) noexcept;

/// Runs fn(0) … fn(n-1) on resolve_threads(num_threads, n) threads, which
/// take indices in ascending order from a shared counter; returns once all
/// are done. With ≤ 1 thread runs them inline, in order. If tasks throw, no
/// further index is handed out and the exception of the lowest failing
/// index is rethrown after every thread has been joined.
void parallel_for(std::size_t n, int num_threads,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for() that returns fn(0) … fn(n-1) in index order.
template <class Fn>
auto parallel_map(std::size_t n, int num_threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    std::vector<std::invoke_result_t<Fn&, std::size_t>> out(n);
    parallel_for(n, num_threads, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

}  // namespace ucp
