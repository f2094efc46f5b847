#include "util/trace.hpp"

#if UCP_TRACE_ENABLED

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>

#include "util/stats.hpp"

namespace ucp::trace {

namespace detail {

std::atomic<int> g_level{0};

namespace {

/// Per-thread cap: beyond this, records are counted as dropped instead of
/// growing the buffer without bound (a runaway iter-level trace on a huge
/// instance). 1M records ≈ 120 MB across all threads worst-case.
constexpr std::size_t kMaxRecordsPerThread = std::size_t{1} << 20;

struct Record {
    enum class Kind : std::uint8_t { kSpan, kIter, kInstant };
    Kind kind;
    std::uint16_t depth;
    const char* name;  // span/instant name or iter channel (static strings)
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
    std::int64_t iter;
    double lb, ub, step, hit_rate;
    std::uint64_t live_rows, live_cols;
    std::uint64_t deltas[kNumTracked];
};

}  // namespace

/// One writer (the owning thread); exporters read after the solve. Owned by
/// the registry so records survive thread exit (parallel_for's threads).
struct ThreadState {
    std::uint32_t tid = 0;
    std::uint16_t depth = 0;
    std::uint64_t dropped = 0;
    std::vector<Record> records;

    void push(const Record& r) {
        if (records.size() >= kMaxRecordsPerThread) {
            ++dropped;
            return;
        }
        records.push_back(r);
    }
};

namespace {

struct Registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadState>> threads;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    stats::Counter* tracked[kNumTracked] = {};
    bool tracked_resolved = false;

    ThreadState& register_thread() {
        const std::lock_guard<std::mutex> lock(mutex);
        threads.push_back(std::make_unique<ThreadState>());
        threads.back()->tid = static_cast<std::uint32_t>(threads.size() - 1);
        return *threads.back();
    }

    void resolve_tracked() {
        if (tracked_resolved) return;
        for (std::size_t k = 0; k < kNumTracked; ++k)
            tracked[k] = &stats::counter(kTrackedCounters[k]);
        tracked_resolved = true;
    }
};

Registry& registry() {
    static Registry r;
    return r;
}

}  // namespace

ThreadState& thread_state() {
    thread_local ThreadState* ts = &registry().register_thread();
    return *ts;
}

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - registry().epoch)
            .count());
}

void capture_counters(std::uint64_t (&out)[kNumTracked]) noexcept {
    Registry& r = registry();
    for (std::size_t k = 0; k < kNumTracked; ++k)
        out[k] = r.tracked[k] != nullptr ? r.tracked[k]->value() : 0;
}

}  // namespace detail

using detail::Record;
using detail::registry;

bool parse_level(std::string_view text, Level& out) {
    if (text == "off") {
        out = Level::kOff;
    } else if (text == "phase") {
        out = Level::kPhase;
    } else if (text == "iter") {
        out = Level::kIter;
    } else {
        return false;
    }
    return true;
}

const char* to_string(Level level) noexcept {
    switch (level) {
        case Level::kOff:
            return "off";
        case Level::kPhase:
            return "phase";
        case Level::kIter:
            return "iter";
    }
    return "off";
}

void start(Level level) {
    clear();
    auto& r = registry();
    {
        const std::lock_guard<std::mutex> lock(r.mutex);
        r.resolve_tracked();
        r.epoch = std::chrono::steady_clock::now();
    }
    detail::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void stop() noexcept {
    detail::g_level.store(0, std::memory_order_relaxed);
}

void clear() {
    auto& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& t : r.threads) {
        t->records.clear();
        t->dropped = 0;
        // depth is NOT reset: live spans on other threads keep their nesting.
    }
}

Level level() noexcept {
    return static_cast<Level>(
        detail::g_level.load(std::memory_order_relaxed));
}

void Span::begin(const char* name) {
    ts_ = &detail::thread_state();
    name_ = name;
    depth_ = ts_->depth++;
    detail::capture_counters(base_);
    t0_ = detail::now_ns();  // last: excludes our own setup from the span
}

void Span::end() {
    Record rec{};
    rec.kind = Record::Kind::kSpan;
    rec.name = name_;
    rec.depth = depth_;
    rec.t0_ns = t0_;
    rec.t1_ns = detail::now_ns();
    std::uint64_t now_vals[kNumTracked];
    detail::capture_counters(now_vals);
    for (std::size_t k = 0; k < kNumTracked; ++k)
        rec.deltas[k] = now_vals[k] - base_[k];
    --ts_->depth;
    ts_->push(rec);
}

void iteration(const char* channel, std::int64_t iter, double lower_bound,
               double upper_bound, double step, std::uint64_t live_rows,
               std::uint64_t live_cols, double cache_hit_rate) {
    auto& ts = detail::thread_state();
    Record rec{};
    rec.kind = Record::Kind::kIter;
    rec.name = channel;
    rec.depth = ts.depth;
    rec.t0_ns = rec.t1_ns = detail::now_ns();
    rec.iter = iter;
    rec.lb = lower_bound;
    rec.ub = upper_bound;
    rec.step = step;
    rec.live_rows = live_rows;
    rec.live_cols = live_cols;
    rec.hit_rate = cache_hit_rate;
    ts.push(rec);
}

double dd_cache_hit_rate() noexcept {
    static stats::Counter& hits = stats::counter("zdd.cache_hits");
    static stats::Counter& misses = stats::counter("zdd.cache_misses");
    const double h = static_cast<double>(hits.value());
    const double m = static_cast<double>(misses.value());
    return h + m > 0.0 ? h / (h + m) : 0.0;
}

void instant(const char* name) noexcept {
    auto& ts = detail::thread_state();
    Record rec{};
    rec.kind = Record::Kind::kInstant;
    rec.name = name;
    rec.depth = ts.depth;
    rec.t0_ns = rec.t1_ns = detail::now_ns();
    ts.push(rec);
}

namespace {

struct Tagged {
    std::uint32_t tid;
    const Record* rec;
};

/// Every record across every thread buffer, sorted by begin timestamp (ties
/// broken by tid so the output is deterministic).
std::vector<Tagged> merged() {
    auto& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<Tagged> out;
    for (const auto& t : r.threads)
        for (const Record& rec : t->records) out.push_back({t->tid, &rec});
    std::stable_sort(out.begin(), out.end(), [](const Tagged& a, const Tagged& b) {
        if (a.rec->t0_ns != b.rec->t0_ns) return a.rec->t0_ns < b.rec->t0_ns;
        return a.tid < b.tid;
    });
    return out;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Writes the nonzero counter deltas of a span as a JSON object.
void write_deltas(std::ostream& os, const Record& rec) {
    os << '{';
    bool first = true;
    for (std::size_t k = 0; k < kNumTracked; ++k) {
        if (rec.deltas[k] == 0) continue;
        if (!first) os << ", ";
        first = false;
        os << '"' << kTrackedCounters[k] << "\": " << rec.deltas[k];
    }
    os << '}';
}

}  // namespace

void write_jsonl(std::ostream& os) {
    const auto recs = merged();
    const Totals t = totals();
    os << "{\"type\": \"meta\", \"version\": 1, \"level\": \""
       << to_string(level()) << "\", \"spans\": " << t.spans
       << ", \"iter_events\": " << t.iter_events
       << ", \"instants\": " << t.instants << ", \"dropped\": " << t.dropped
       << ", \"clock\": \"steady\", \"time_unit\": \"us\"}\n";
    for (const Tagged& tr : recs) {
        const Record& rec = *tr.rec;
        switch (rec.kind) {
            case Record::Kind::kSpan:
                os << "{\"type\": \"span\", \"name\": \"" << rec.name
                   << "\", \"tid\": " << tr.tid << ", \"depth\": " << rec.depth
                   << ", \"ts_us\": " << us(rec.t0_ns)
                   << ", \"dur_us\": " << us(rec.t1_ns - rec.t0_ns)
                   << ", \"counters\": ";
                write_deltas(os, rec);
                os << "}\n";
                break;
            case Record::Kind::kIter:
                os << "{\"type\": \"iter\", \"channel\": \"" << rec.name
                   << "\", \"tid\": " << tr.tid << ", \"iter\": " << rec.iter
                   << ", \"ts_us\": " << us(rec.t0_ns) << ", \"lb\": " << rec.lb
                   << ", \"ub\": " << rec.ub << ", \"step\": " << rec.step
                   << ", \"live_rows\": " << rec.live_rows
                   << ", \"live_cols\": " << rec.live_cols
                   << ", \"cache_hit_rate\": " << rec.hit_rate << "}\n";
                break;
            case Record::Kind::kInstant:
                os << "{\"type\": \"instant\", \"name\": \"" << rec.name
                   << "\", \"tid\": " << tr.tid
                   << ", \"ts_us\": " << us(rec.t0_ns) << "}\n";
                break;
        }
    }
}

void write_chrome(std::ostream& os) {
    const auto recs = merged();
    os << "{\"traceEvents\": [";
    bool first = true;
    const auto sep = [&] {
        if (!first) os << ',';
        first = false;
        os << "\n  ";
    };
    for (const Tagged& tr : recs) {
        const Record& rec = *tr.rec;
        switch (rec.kind) {
            case Record::Kind::kSpan:
                sep();
                os << "{\"ph\": \"X\", \"name\": \"" << rec.name
                   << "\", \"pid\": 1, \"tid\": " << tr.tid
                   << ", \"ts\": " << us(rec.t0_ns)
                   << ", \"dur\": " << us(rec.t1_ns - rec.t0_ns)
                   << ", \"args\": ";
                write_deltas(os, rec);
                os << '}';
                break;
            case Record::Kind::kIter:
                // Two counter tracks per channel (lb / ub) draw the
                // converging bounds as line charts in Perfetto.
                sep();
                os << "{\"ph\": \"C\", \"name\": \"" << rec.name
                   << ".bounds\", \"pid\": 1, \"ts\": " << us(rec.t0_ns)
                   << ", \"args\": {\"lb\": " << rec.lb
                   << ", \"ub\": " << rec.ub << "}}";
                break;
            case Record::Kind::kInstant:
                sep();
                os << "{\"ph\": \"i\", \"name\": \"" << rec.name
                   << "\", \"pid\": 1, \"tid\": " << tr.tid
                   << ", \"ts\": " << us(rec.t0_ns) << ", \"s\": \"t\"}";
                break;
        }
    }
    os << "\n]}\n";
}

Totals totals() {
    auto& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    Totals t;
    for (const auto& th : r.threads) {
        t.dropped += th->dropped;
        for (const Record& rec : th->records) {
            switch (rec.kind) {
                case Record::Kind::kSpan:
                    ++t.spans;
                    break;
                case Record::Kind::kIter:
                    ++t.iter_events;
                    break;
                case Record::Kind::kInstant:
                    ++t.instants;
                    break;
            }
        }
    }
    return t;
}

std::vector<SpanView> spans_snapshot() {
    std::vector<SpanView> out;
    for (const Tagged& tr : merged()) {
        const Record& rec = *tr.rec;
        if (rec.kind != Record::Kind::kSpan) continue;
        SpanView v{};
        v.name = rec.name;
        v.tid = tr.tid;
        v.depth = rec.depth;
        v.t0_ns = rec.t0_ns;
        v.t1_ns = rec.t1_ns;
        std::copy(std::begin(rec.deltas), std::end(rec.deltas),
                  std::begin(v.deltas));
        out.push_back(v);
    }
    return out;
}

std::vector<IterView> iters_snapshot() {
    std::vector<IterView> out;
    for (const Tagged& tr : merged()) {
        const Record& rec = *tr.rec;
        if (rec.kind != Record::Kind::kIter) continue;
        out.push_back({rec.name, tr.tid, rec.iter, rec.t0_ns, rec.lb, rec.ub,
                       rec.step, rec.live_rows, rec.live_cols, rec.hit_rate});
    }
    return out;
}

std::vector<InstantView> instants_snapshot() {
    std::vector<InstantView> out;
    for (const Tagged& tr : merged()) {
        const Record& rec = *tr.rec;
        if (rec.kind != Record::Kind::kInstant) continue;
        out.push_back({rec.name, tr.tid, rec.t0_ns});
    }
    return out;
}

}  // namespace ucp::trace

#else  // UCP_TRACE_ENABLED == 0

// Tracing compiled out (-DUCP_TRACE=OFF): the header provides inline no-op
// stubs; parse_level/to_string stay available so CLI flag parsing compiles.
#include <string_view>

namespace ucp::trace {

bool parse_level(std::string_view text, Level& out) {
    if (text == "off") {
        out = Level::kOff;
    } else if (text == "phase") {
        out = Level::kPhase;
    } else if (text == "iter") {
        out = Level::kIter;
    } else {
        return false;
    }
    return true;
}

const char* to_string(Level) noexcept { return "off"; }

}  // namespace ucp::trace

#endif  // UCP_TRACE_ENABLED
