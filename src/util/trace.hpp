// Hierarchical span tracing + convergence event log (docs/OBSERVABILITY.md).
//
// Three record kinds feed two exporters (JSONL, Chrome trace_event):
//
//   * spans    — RAII scopes (`TRACE_SPAN("dual_ascent")`) recording wall
//     time, thread id, nesting depth and the deltas of a small fixed set of
//     perf counters (util/stats.hpp) across the scope;
//   * iteration events — the convergence channel: one record per governed
//     iteration (subgradient / dual-ascent / SCG fixing step) carrying lower
//     bound, upper bound, step size, live rows/cols and the DD cache hit
//     rate at that instant;
//   * instants — point events (budget trips, implicit→explicit fallbacks).
//
// Records land in per-thread buffers: each buffer has exactly one writer (its
// thread), so recording takes no lock — one relaxed atomic load (the level
// gate), a steady_clock read and a vector append. A global registry owns the
// buffers (threads may die before export; parallel_for's threads do) and the
// exporters merge-sort them by timestamp after the solve.
//
// Runtime gate: tracing is off by default; `trace::start(Level)` arms it and
// every macro site pays one relaxed load when disarmed. Compile-time gate:
// building with -DUCP_TRACE=OFF (CMake) defines UCP_TRACE_ENABLED=0 and the
// macros expand to nothing — verified zero-overhead in the Release bench
// configuration (the CI `bench-smoke-traceoff` lane keeps it honest).
//
// Concurrency contract: start/stop/clear and the exporters must not race
// active recording threads — arm tracing before forking workers and export
// after joining them (the solver pipeline and the CLI/bench hooks do).
#pragma once

#ifndef UCP_TRACE_ENABLED
#define UCP_TRACE_ENABLED 1
#endif

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ucp::trace {

/// Verbosity: kPhase records spans + instants, kIter adds the per-iteration
/// convergence channel (and the per-pass reduction spans).
enum class Level : int { kOff = 0, kPhase = 1, kIter = 2 };

/// Parses "phase" / "iter" / "off". Returns false on anything else.
bool parse_level(std::string_view text, Level& out);
[[nodiscard]] const char* to_string(Level level) noexcept;

/// Perf counters whose per-span deltas are captured (indices into
/// Record::deltas). Kept small and fixed so span begin/end stay
/// allocation-free: 2·kNumTracked relaxed loads per span.
inline constexpr const char* kTrackedCounters[] = {
    "subgradient.iterations", "reduce.passes",        "zdd.cache_hits",
    "zdd.cache_misses",       "budget.zdd_fallbacks", "zdd.gc_runs",
    "zdd.chain_nodes_made",   "zdd.chain_hits",       "mem.denied",
    "mem.cache_sheds",
};
inline constexpr std::size_t kNumTracked =
    sizeof(kTrackedCounters) / sizeof(kTrackedCounters[0]);

/// Aggregate totals across every thread buffer (test / report helper).
struct Totals {
    std::size_t spans = 0;
    std::size_t iter_events = 0;
    std::size_t instants = 0;
    std::uint64_t dropped = 0;
};

/// Flat views over recorded data for programmatic consumers (tests,
/// in-process reporting). Names are the static strings passed at the record
/// site. Timestamps are nanoseconds since trace::start().
struct SpanView {
    const char* name;
    std::uint32_t tid;
    std::uint16_t depth;
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
    std::uint64_t deltas[kNumTracked];
};
struct IterView {
    const char* channel;
    std::uint32_t tid;
    std::int64_t iter;
    std::uint64_t t_ns;
    double lower_bound;
    double upper_bound;
    double step;
    std::uint64_t live_rows;
    std::uint64_t live_cols;
    double cache_hit_rate;
};
struct InstantView {
    const char* name;
    std::uint32_t tid;
    std::uint64_t t_ns;
};

/// True when the library was built with tracing compiled in (UCP_TRACE=ON).
[[nodiscard]] constexpr bool compiled_in() noexcept {
    return UCP_TRACE_ENABLED != 0;
}

#if UCP_TRACE_ENABLED

namespace detail {

extern std::atomic<int> g_level;  // Level as int; relaxed fast-path gate

struct ThreadState;  // per-thread buffer, owned by the global registry
/// The calling thread's buffer (registered on first use, process lifetime).
ThreadState& thread_state();
void capture_counters(std::uint64_t (&out)[kNumTracked]) noexcept;
std::uint64_t now_ns() noexcept;

}  // namespace detail

/// Fast gate, one relaxed load. Safe to call before start().
[[nodiscard]] inline bool active(Level wanted) noexcept {
    return detail::g_level.load(std::memory_order_relaxed) >=
           static_cast<int>(wanted);
}

/// Clears all buffers and arms recording at `level` (epoch = now).
void start(Level level);
/// Disarms recording. Buffers keep their records for export.
void stop() noexcept;
/// Drops every record (buffers stay registered).
void clear();
[[nodiscard]] Level level() noexcept;

/// One convergence-channel record; call behind `active(Level::kIter)` (the
/// TRACE_ITER macro does). `channel` must have static lifetime.
void iteration(const char* channel, std::int64_t iter, double lower_bound,
               double upper_bound, double step, std::uint64_t live_rows,
               std::uint64_t live_cols, double cache_hit_rate);

/// Point event (budget trip, fallback). `name` must have static lifetime.
/// noexcept so Budget::trip() can emit from its noexcept path.
void instant(const char* name) noexcept;

/// Process-wide DD computed-cache hit rate so far (zdd.cache_hits /
/// (hits + misses)); 0.0 before any DD work. Convenience for TRACE_ITER
/// call sites — only evaluated when the iter channel is armed.
[[nodiscard]] double dd_cache_hit_rate() noexcept;

/// RAII span. Records only if tracing was active at construction; the
/// destructor then appends one record to the thread's buffer.
class Span {
public:
    explicit Span(const char* name, Level lvl = Level::kPhase) {
        if (active(lvl)) begin(name);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
        if (ts_ != nullptr) end();
    }

private:
    void begin(const char* name);
    void end();

    detail::ThreadState* ts_ = nullptr;
    const char* name_ = nullptr;
    std::uint64_t t0_ = 0;
    std::uint16_t depth_ = 0;
    std::uint64_t base_[kNumTracked] = {};
};

// ---- exporters & snapshots (merge every thread buffer; do not race active
// ---- recording threads) --------------------------------------------------
/// JSON Lines: one meta object, then one object per record sorted by
/// timestamp. Schema in docs/OBSERVABILITY.md; scripts/trace_report.py is
/// the reference consumer.
void write_jsonl(std::ostream& os);
/// Chrome trace_event JSON ({"traceEvents": [...]}), loadable in
/// chrome://tracing and Perfetto: spans as "X" complete events, instants as
/// "i", and the convergence bounds as "C" counter tracks.
void write_chrome(std::ostream& os);

[[nodiscard]] Totals totals();
[[nodiscard]] std::vector<SpanView> spans_snapshot();
[[nodiscard]] std::vector<IterView> iters_snapshot();
[[nodiscard]] std::vector<InstantView> instants_snapshot();

#else  // UCP_TRACE_ENABLED == 0: every entry point is an inline no-op.

[[nodiscard]] inline bool active(Level) noexcept { return false; }
inline void start(Level) {}
inline void stop() noexcept {}
inline void clear() {}
[[nodiscard]] inline Level level() noexcept { return Level::kOff; }
inline void iteration(const char*, std::int64_t, double, double, double,
                      std::uint64_t, std::uint64_t, double) {}
inline void instant(const char*) noexcept {}
[[nodiscard]] inline double dd_cache_hit_rate() noexcept { return 0.0; }

class Span {
public:
    explicit Span(const char*, Level = Level::kPhase) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
};

inline void write_jsonl(std::ostream&) {}
inline void write_chrome(std::ostream&) {}
[[nodiscard]] inline Totals totals() { return {}; }
[[nodiscard]] inline std::vector<SpanView> spans_snapshot() { return {}; }
[[nodiscard]] inline std::vector<IterView> iters_snapshot() { return {}; }
[[nodiscard]] inline std::vector<InstantView> instants_snapshot() {
    return {};
}

#endif  // UCP_TRACE_ENABLED

}  // namespace ucp::trace

// ---- macros ---------------------------------------------------------------
// TRACE_SPAN("name")            — phase-level RAII span for the current scope
// TRACE_SPAN_ITER("name")       — span recorded only at --trace-level=iter
//                                 (per-pass / per-round scopes on hot paths)
// TRACE_ITER(channel, ...)      — convergence event, gated on iter level
// TRACE_INSTANT("name")         — point event, gated on phase level
#if UCP_TRACE_ENABLED
#define UCP_TRACE_CAT2(a, b) a##b
#define UCP_TRACE_CAT(a, b) UCP_TRACE_CAT2(a, b)
#define TRACE_SPAN(name) \
    ::ucp::trace::Span UCP_TRACE_CAT(ucp_trace_span_, __LINE__)(name)
#define TRACE_SPAN_ITER(name)                                     \
    ::ucp::trace::Span UCP_TRACE_CAT(ucp_trace_span_, __LINE__)(  \
        name, ::ucp::trace::Level::kIter)
#define TRACE_ITER(channel, iter, lb, ub, step, rows, cols, hit_rate)       \
    do {                                                                    \
        if (::ucp::trace::active(::ucp::trace::Level::kIter))               \
            ::ucp::trace::iteration((channel), (iter), (lb), (ub), (step),  \
                                    (rows), (cols), (hit_rate));            \
    } while (0)
#define TRACE_INSTANT(name)                                   \
    do {                                                      \
        if (::ucp::trace::active(::ucp::trace::Level::kPhase)) \
            ::ucp::trace::instant(name);                      \
    } while (0)
#else
#define TRACE_SPAN(name) ((void)0)
#define TRACE_SPAN_ITER(name) ((void)0)
#define TRACE_ITER(channel, iter, lb, ub, step, rows, cols, hit_rate) ((void)0)
#define TRACE_INSTANT(name) ((void)0)
#endif
