// The tracing subsystem (src/util/trace.*): span nesting and ordering under
// 1 and 4 threads, convergence-channel completeness on a pinned instance,
// JSONL schema shape, exactly-once fallback instants under fault injection,
// and the idempotent manager-scoped counter roll-up (flush_stats).
//
// Tracing state is process-global, so every test arms it in its body and
// disarms before asserting — the suites here never overlap with each other
// (gtest runs serially) or with other suites (they never arm tracing).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "solver/scg.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"
#include "zdd/bdd.hpp"
#include "zdd/zdd.hpp"
#include "zdd_fixtures.hpp"

namespace {

using ucp::cov::CoverMatrix;
namespace trace = ucp::trace;

// Hermetic: an ambient UCP_FAULT (e.g. from the CI sweep) would make the
// ungoverned runs below trip unexpectedly.
const bool g_env_cleared = [] {
    unsetenv("UCP_FAULT");
    return true;
}();

/// RAII guard: always leaves tracing disarmed and empty, even on ASSERT exit.
struct TraceSession {
    explicit TraceSession(trace::Level lvl) { trace::start(lvl); }
    ~TraceSession() {
        trace::stop();
        trace::clear();
    }
};

CoverMatrix scp_instance(std::uint64_t seed) {
    ucp::gen::RandomScpOptions g;
    g.rows = 30;
    g.cols = 45;
    g.density = 0.1;
    g.min_cost = 1;
    g.max_cost = 3;
    g.seed = seed;
    return ucp::gen::random_scp(g);
}

ucp::pla::Pla small_pla(std::uint64_t seed) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = 5;
    opt.num_outputs = 1;
    opt.num_cubes = 10;
    opt.literal_prob = 0.55;
    opt.dc_fraction = 0.15;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

// ---- level gating -----------------------------------------------------------

TEST(Trace, DisarmedByDefaultAndRecordsNothing) {
    trace::clear();
    EXPECT_EQ(trace::level(), trace::Level::kOff);
    EXPECT_FALSE(trace::active(trace::Level::kPhase));
    {
        TRACE_SPAN("should_not_record");
        TRACE_ITER("nope", 0, 0.0, 0.0, 0.0, 0, 0, 0.0);
        TRACE_INSTANT("nope");
    }
    const trace::Totals t = trace::totals();
    EXPECT_EQ(t.spans, 0u);
    EXPECT_EQ(t.iter_events, 0u);
    EXPECT_EQ(t.instants, 0u);
}

TEST(Trace, PhaseLevelSkipsIterRecords) {
    TraceSession session(trace::Level::kPhase);
    EXPECT_TRUE(trace::active(trace::Level::kPhase));
    EXPECT_FALSE(trace::active(trace::Level::kIter));
    {
        TRACE_SPAN("phase_span");
        TRACE_SPAN_ITER("iter_span");  // gated out at phase level
        TRACE_ITER("chan", 0, 1.0, 2.0, 0.5, 3, 4, 0.0);
        TRACE_INSTANT("tick");
    }
    trace::stop();
    const trace::Totals t = trace::totals();
    EXPECT_EQ(t.spans, 1u);
    EXPECT_EQ(t.iter_events, 0u);
    EXPECT_EQ(t.instants, 1u);
}

TEST(Trace, ParseLevelRoundTrips) {
    trace::Level lvl;
    EXPECT_TRUE(trace::parse_level("off", lvl));
    EXPECT_EQ(lvl, trace::Level::kOff);
    EXPECT_TRUE(trace::parse_level("phase", lvl));
    EXPECT_EQ(lvl, trace::Level::kPhase);
    EXPECT_TRUE(trace::parse_level("iter", lvl));
    EXPECT_EQ(lvl, trace::Level::kIter);
    EXPECT_FALSE(trace::parse_level("verbose", lvl));
}

// ---- span nesting and ordering ----------------------------------------------

TEST(Trace, SpanNestingSingleThread) {
    TraceSession session(trace::Level::kPhase);
    {
        TRACE_SPAN("outer");
        {
            TRACE_SPAN("middle");
            { TRACE_SPAN("inner"); }
        }
        { TRACE_SPAN("middle2"); }
    }
    trace::stop();

    const auto spans = trace::spans_snapshot();
    ASSERT_EQ(spans.size(), 4u);
    std::map<std::string, trace::SpanView> by_name;
    for (const auto& s : spans) by_name.emplace(s.name, s);
    ASSERT_EQ(by_name.size(), 4u);

    EXPECT_EQ(by_name.at("outer").depth, 0u);
    EXPECT_EQ(by_name.at("middle").depth, 1u);
    EXPECT_EQ(by_name.at("inner").depth, 2u);
    EXPECT_EQ(by_name.at("middle2").depth, 1u);

    // All on the same thread, and child intervals lie inside their parents'.
    const auto& outer = by_name.at("outer");
    for (const auto& [name, s] : by_name) {
        EXPECT_EQ(s.tid, outer.tid) << name;
        EXPECT_LE(s.t0_ns, s.t1_ns) << name;
        if (name != "outer") {
            EXPECT_GE(s.t0_ns, outer.t0_ns) << name;
            EXPECT_LE(s.t1_ns, outer.t1_ns) << name;
        }
    }
    const auto& mid = by_name.at("middle");
    EXPECT_GE(by_name.at("inner").t0_ns, mid.t0_ns);
    EXPECT_LE(by_name.at("inner").t1_ns, mid.t1_ns);
    // Siblings are ordered.
    EXPECT_GE(by_name.at("middle2").t0_ns, mid.t1_ns);
}

TEST(Trace, SpanNestingFourThreads) {
    TraceSession session(trace::Level::kPhase);
    constexpr int kThreads = 4;
    {
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int w = 0; w < kThreads; ++w)
            workers.emplace_back([] {
                TRACE_SPAN("worker");
                { TRACE_SPAN("worker.child"); }
            });
        for (auto& t : workers) t.join();
    }
    trace::stop();

    const auto spans = trace::spans_snapshot();
    ASSERT_EQ(spans.size(), 2u * kThreads);

    // Per thread: exactly one depth-0 "worker" containing one depth-1 child.
    std::map<std::uint32_t, std::vector<trace::SpanView>> by_tid;
    for (const auto& s : spans) by_tid[s.tid].push_back(s);
    EXPECT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
    for (const auto& [tid, ss] : by_tid) {
        ASSERT_EQ(ss.size(), 2u) << "tid " << tid;
        const trace::SpanView* parent = nullptr;
        const trace::SpanView* child = nullptr;
        for (const auto& s : ss)
            (std::string(s.name) == "worker" ? parent : child) = &s;
        ASSERT_NE(parent, nullptr);
        ASSERT_NE(child, nullptr);
        EXPECT_EQ(parent->depth, 0u);
        EXPECT_EQ(child->depth, 1u);
        EXPECT_GE(child->t0_ns, parent->t0_ns);
        EXPECT_LE(child->t1_ns, parent->t1_ns);
    }
}

TEST(Trace, SpanCounterDeltas) {
    // The span must observe exactly the tracked-counter activity inside it.
    std::size_t slot = trace::kNumTracked;
    for (std::size_t k = 0; k < trace::kNumTracked; ++k)
        if (std::string(trace::kTrackedCounters[k]) == "reduce.passes") slot = k;
    ASSERT_LT(slot, trace::kNumTracked);

    TraceSession session(trace::Level::kPhase);
    {
        TRACE_SPAN("bump");
        ucp::stats::counter("reduce.passes").add(7);
    }
    trace::stop();
    const auto spans = trace::spans_snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].deltas[slot], 7u);
}

// ---- convergence event channel ----------------------------------------------

TEST(Trace, SubgradientChannelCompleteOnPinnedInstance) {
    const CoverMatrix m = scp_instance(2026);

    // Reference run (untraced) pins the iteration count.
    ucp::solver::ScgOptions opt;
    opt.num_starts = 1;
    opt.seed = 99;
    const ucp::solver::ScgResult ref = solve_scg(m, opt);

    const auto iters_before =
        ucp::stats::counter("subgradient.iterations").value();
    TraceSession session(trace::Level::kIter);
    const ucp::solver::ScgResult traced = solve_scg(m, opt);
    trace::stop();
    const auto iters_delta =
        ucp::stats::counter("subgradient.iterations").value() - iters_before;

    // Tracing must not perturb the solve.
    EXPECT_EQ(traced.cost, ref.cost);
    EXPECT_EQ(traced.solution, ref.solution);
    EXPECT_EQ(traced.lower_bound, ref.lower_bound);

    // One "subgradient" event per charged subgradient iteration — the channel
    // is complete, not sampled.
    const auto events = trace::iters_snapshot();
    std::size_t sub_events = 0;
    for (const auto& e : events) {
        if (std::string(e.channel) != "subgradient") continue;
        ++sub_events;
        EXPECT_GE(e.upper_bound, e.lower_bound);
        EXPECT_GT(e.live_rows, 0u);
        EXPECT_GT(e.live_cols, 0u);
    }
    EXPECT_EQ(sub_events, iters_delta);

    // The solver spans all appeared.
    const auto spans = trace::spans_snapshot();
    std::size_t scg_spans = 0, sub_spans = 0;
    for (const auto& s : spans) {
        if (std::string(s.name) == "scg") ++scg_spans;
        if (std::string(s.name) == "subgradient") ++sub_spans;
    }
    EXPECT_EQ(scg_spans, 1u);
    EXPECT_GE(sub_spans, 1u);
}

// ---- JSONL schema -----------------------------------------------------------

TEST(Trace, JsonlSchema) {
    TraceSession session(trace::Level::kIter);
    {
        TRACE_SPAN("alpha");
        { TRACE_SPAN("beta"); }
        TRACE_ITER("chan", 3, 1.5, 4.5, 0.25, 10, 20, 0.5);
        TRACE_INSTANT("tick");
    }
    trace::stop();

    std::ostringstream os;
    trace::write_jsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t spans = 0, iters = 0, instants = 0;
    bool meta_first = false;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        if (lineno == 1) {
            meta_first = line.find("\"type\": \"meta\"") != std::string::npos;
            EXPECT_NE(line.find("\"version\": 1"), std::string::npos);
            EXPECT_NE(line.find("\"time_unit\": \"us\""), std::string::npos);
            continue;
        }
        if (line.find("\"type\": \"span\"") != std::string::npos) {
            ++spans;
            for (const char* key :
                 {"\"name\"", "\"tid\"", "\"depth\"", "\"ts_us\"",
                  "\"dur_us\"", "\"counters\""})
                EXPECT_NE(line.find(key), std::string::npos) << line;
        } else if (line.find("\"type\": \"iter\"") != std::string::npos) {
            ++iters;
            for (const char* key :
                 {"\"channel\"", "\"iter\"", "\"lb\"", "\"ub\"", "\"step\"",
                  "\"live_rows\"", "\"live_cols\"", "\"cache_hit_rate\""})
                EXPECT_NE(line.find(key), std::string::npos) << line;
        } else if (line.find("\"type\": \"instant\"") != std::string::npos) {
            ++instants;
            EXPECT_NE(line.find("\"name\""), std::string::npos) << line;
        } else {
            ADD_FAILURE() << "unclassified line: " << line;
        }
    }
    EXPECT_TRUE(meta_first);
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(iters, 1u);
    EXPECT_EQ(instants, 1u);

    // The iter payload round-trips its values.
    EXPECT_NE(os.str().find("\"iter\": 3"), std::string::npos);
    EXPECT_NE(os.str().find("\"lb\": 1.5"), std::string::npos);
    EXPECT_NE(os.str().find("\"live_cols\": 20"), std::string::npos);
}

TEST(Trace, ChromeExportIsSingleJsonObject) {
    TraceSession session(trace::Level::kPhase);
    {
        TRACE_SPAN("alpha");
        TRACE_INSTANT("tick");
    }
    trace::stop();
    std::ostringstream os;
    trace::write_chrome(os);
    const std::string out = os.str();
    EXPECT_EQ(out.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"alpha\""), std::string::npos);
}

// ---- fault interaction: fallback instants are exactly the counter delta -----

TEST(Trace, FallbackInstantsMatchCounterExactly) {
    // alloc:1 fails the first DD node charge, so the implicit phases trip and
    // the table builder takes its explicit fallbacks. Each counter bump must
    // emit exactly one instant — no double emission, none missing.
    const ucp::pla::Pla pla = small_pla(7);
    ucp::solver::TwoLevelOptions tl;
    tl.budget.fault = {ucp::fault::Kind::kAlloc, 1};
    tl.budget.zdd_node_budget = 1;

    const auto before = ucp::stats::counter("budget.zdd_fallbacks").value();
    TraceSession session(trace::Level::kPhase);
    const auto r = ucp::solver::minimize_two_level(pla, tl);
    trace::stop();
    const auto fallbacks =
        ucp::stats::counter("budget.zdd_fallbacks").value() - before;

    EXPECT_TRUE(r.verified);
    EXPECT_GE(fallbacks, 1u);  // the forced trip must have degraded something

    std::size_t fallback_instants = 0;
    for (const auto& i : trace::instants_snapshot())
        if (std::string(i.name) == "budget.zdd_fallback") ++fallback_instants;
    EXPECT_EQ(fallback_instants, fallbacks);
}

// ---- manager-scoped counter roll-up (satellite fix) -------------------------

TEST(Trace, ZddManagerRollUpIsIdempotent) {
    using ucp::zdd::Zdd;
    using ucp::zdd::ZddManager;
    using ucp::zdd::fixtures::cube;

    const auto run_ops = [](ZddManager& mgr) {
        Zdd a = cube(mgr, {0, 2, 4});
        Zdd b = cube(mgr, {1, 2, 3});
        Zdd u = mgr.union_(a, b);
        u = mgr.union_(u, cube(mgr, {0, 1}));
        (void)mgr.intersect(u, a);
        (void)mgr.split(u, cube(mgr, {2}, {0, 1, 3, 4}));
    };

    auto& hits = ucp::stats::counter("zdd.cache_hits");
    auto& misses = ucp::stats::counter("zdd.cache_misses");
    auto& resizes = ucp::stats::counter("zdd.cache_resizes");

    // Reference: one manager, destructor flush only.
    const auto h0 = hits.value();
    const auto m0 = misses.value();
    const auto r0 = resizes.value();
    {
        ZddManager mgr(8);
        run_ops(mgr);
    }
    const auto h_once = hits.value() - h0;
    const auto m_once = misses.value() - m0;
    const auto r_once = resizes.value() - r0;
    ASSERT_GT(m_once, 0u);  // the ops above must exercise the cache

    // Same ops, but with redundant explicit flushes before destruction —
    // the delta-based roll-up must not double-count anything.
    const auto h1 = hits.value();
    const auto m1 = misses.value();
    const auto r1 = resizes.value();
    {
        ZddManager mgr(8);
        run_ops(mgr);
        mgr.flush_stats();
        mgr.flush_stats();  // second flush: zero new activity, zero added
        const auto mid = misses.value() - m1;
        EXPECT_EQ(mid, m_once);
    }
    EXPECT_EQ(hits.value() - h1, h_once);
    EXPECT_EQ(misses.value() - m1, m_once);
    EXPECT_EQ(resizes.value() - r1, r_once);

    // Re-created managers in one process: N managers ⇒ exactly N× one
    // manager's activity, regardless of interleaved explicit flushes.
    const auto h2 = hits.value();
    const auto m2 = misses.value();
    for (int i = 0; i < 3; ++i) {
        ZddManager mgr(8);
        run_ops(mgr);
        if (i == 1) mgr.flush_stats();
    }
    EXPECT_EQ(hits.value() - h2, 3 * h_once);
    EXPECT_EQ(misses.value() - m2, 3 * m_once);
}

TEST(Trace, BddManagerRollUpIsIdempotent) {
    using ucp::zdd::BddManager;

    const auto run_ops = [](BddManager& mgr) {
        const auto a = mgr.var(0);
        const auto b = mgr.var(1);
        const auto c = mgr.var(2);
        const auto ab = mgr.and_(a, b);
        (void)mgr.or_(ab, c);
        (void)mgr.and_(mgr.or_(a, c), mgr.nvar(1));
    };

    auto& misses = ucp::stats::counter("bdd.cache_misses");
    const auto m0 = misses.value();
    {
        BddManager mgr(4);
        run_ops(mgr);
    }
    const auto m_once = misses.value() - m0;
    ASSERT_GT(m_once, 0u);

    const auto m1 = misses.value();
    {
        BddManager mgr(4);
        run_ops(mgr);
        mgr.flush_stats();
        mgr.flush_stats();
    }
    EXPECT_EQ(misses.value() - m1, m_once);
}

}  // namespace
