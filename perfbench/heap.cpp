// Heap accounting for the benchmark binary: replaces the global operator
// new/delete with versions that, while accounting is on, keep the live byte
// count and its high-water mark, so the benchmark can read the peak heap of
// one call.
//
// VmHWM, the process-wide peak RSS, is the maximum over every call a run
// makes, so it jumps with whichever instance happens to be largest; the
// per-call peak gives a figure per instance that can be averaged.
//
// Accounting is on only during the benchmark's untimed heap pass. Otherwise
// new and delete add one relaxed load to malloc and free, so timed calls (on
// up to four threads) never touch the shared counters.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* account(void* p) {
    if (p == nullptr) throw std::bad_alloc();
    if (!g_on.load(std::memory_order_relaxed)) return p;
    const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
    std::int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
    return p;
}

void release(void* p) noexcept {
    if (p == nullptr) return;
    // A block freed here may have been allocated while accounting was off
    // (or the reverse); the live count drifts, but a call's peak is read
    // relative to the live count at its start, so the drift cancels.
    if (g_on.load(std::memory_order_relaxed))
        g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
    std::free(p);
}

void* aligned(std::size_t n, std::align_val_t al) {
    const auto a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

namespace perfbench {

void set_heap_accounting(bool on) { g_on.store(on, std::memory_order_relaxed); }

std::int64_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::int64_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

void reset_heap_peak() {
    g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return account(std::malloc(n == 0 ? 1 : n)); }
void* operator new[](std::size_t n) { return account(std::malloc(n == 0 ? 1 : n)); }
void* operator new(std::size_t n, std::align_val_t al) { return account(aligned(n, al)); }
void* operator new[](std::size_t n, std::align_val_t al) {
    return account(aligned(n, al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return operator new(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return operator new[](n);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
