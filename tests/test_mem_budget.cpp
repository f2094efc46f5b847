// The memory-budget governor (DESIGN.md §13): hierarchical byte accounting,
// rollback on denial, deterministic OOM injection, and the staged degradation
// ladder — under a tight cap or a persistent injected failure the solvers
// return a feasible anytime cover with Status::kResourceExhausted instead of
// dying on std::bad_alloc.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gen/pla_gen.hpp"
#include "gen/suites.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

// Hermetic: every injection below uses an explicit MemoryBudget / fault
// Spec; an ambient UCP_FAULT or UCP_MEM_BUDGET (e.g. from the chaos sweep)
// would poison the ungoverned reference runs.
const bool g_env_cleared = [] {
    unsetenv("UCP_FAULT");
    unsetenv("UCP_MEM_BUDGET");
    return true;
}();

using ucp::Budget;
using ucp::BudgetOptions;
using ucp::MemoryBudget;
using ucp::MemTracker;
using ucp::Status;
using ucp::fault::Spec;
using ucp::solver::minimize_two_level;
using ucp::solver::TwoLevelOptions;
using ucp::solver::TwoLevelResult;

Spec no_fault() { return Spec{}; }

ucp::pla::Pla random_pla(std::uint64_t seed) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = 8;
    opt.num_outputs = 2;
    opt.num_cubes = 40;
    opt.literal_prob = 0.5;
    opt.dc_fraction = 0.15;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

// ---------------------------------------------------------------------------
// Accountant unit tests.

TEST(MemoryBudget, UncappedCountsAndHighWater) {
    MemoryBudget b(0, nullptr, no_fault());
    EXPECT_TRUE(b.try_charge(100));
    EXPECT_TRUE(b.try_charge(50));
    EXPECT_EQ(b.used(), 150u);
    b.release(120);
    EXPECT_EQ(b.used(), 30u);
    EXPECT_EQ(b.high_water(), 150u);
    EXPECT_EQ(b.denials(), 0u);
    EXPECT_FALSE(b.under_pressure());
}

TEST(MemoryBudget, CapDenialRollsBack) {
    MemoryBudget b(1000, nullptr, no_fault());
    EXPECT_TRUE(b.try_charge(600));
    EXPECT_FALSE(b.try_charge(600));  // would exceed the cap
    EXPECT_EQ(b.used(), 600u);        // denied charge fully rolled back
    EXPECT_EQ(b.denials(), 1u);
    EXPECT_TRUE(b.try_charge(400));   // exactly at the cap is allowed
    EXPECT_EQ(b.used(), 1000u);
    EXPECT_TRUE(b.under_pressure());
    EXPECT_EQ(b.remaining(), 0u);
}

TEST(MemoryBudget, ParentDenialRollsBackChild) {
    MemoryBudget parent(1000, nullptr, no_fault());
    MemoryBudget child(0, &parent, no_fault());  // child itself unlimited
    EXPECT_TRUE(child.try_charge(800));
    EXPECT_EQ(parent.used(), 800u);
    EXPECT_FALSE(child.try_charge(300));  // parent cap denies
    EXPECT_EQ(child.used(), 800u);        // child charge rolled back
    EXPECT_EQ(parent.used(), 800u);
    EXPECT_EQ(parent.denials(), 1u);
    // Pressure (≥ 7/8 of a cap) propagates up the chain: the child reports
    // the parent's state.
    EXPECT_FALSE(child.under_pressure());  // 800 < 875
    EXPECT_TRUE(child.try_charge(100));
    EXPECT_TRUE(child.under_pressure());   // 900 ≥ 875
    child.release(100);
    child.release(800);
    EXPECT_EQ(parent.used(), 0u);
}

TEST(MemoryBudget, SiblingsShareTheParentPool) {
    MemoryBudget parent(1000, nullptr, no_fault());
    MemoryBudget a(0, &parent, no_fault());
    MemoryBudget b(0, &parent, no_fault());
    EXPECT_TRUE(a.try_charge(700));
    EXPECT_FALSE(b.try_charge(700));  // pool exhausted by the sibling
    EXPECT_EQ(b.used(), 0u);
    a.release(700);
    EXPECT_TRUE(b.try_charge(700));
}

TEST(MemoryBudget, InjectedDenialWindow) {
    Spec s = ucp::fault::parse_spec("mem:2:3");  // charges 2,3,4 denied
    ASSERT_TRUE(s.memory_kind());
    MemoryBudget b(0, nullptr, s);
    EXPECT_TRUE(b.try_charge(10));    // charge 1
    EXPECT_FALSE(b.try_charge(10));   // 2
    EXPECT_FALSE(b.try_charge(10));   // 3
    EXPECT_FALSE(b.try_charge(10));   // 4
    EXPECT_TRUE(b.try_charge(10));    // 5
    EXPECT_EQ(b.used(), 20u);
    EXPECT_EQ(b.denials(), 3u);
}

TEST(MemoryBudget, ScheduledDenialsAreDeterministic) {
    Spec s = ucp::fault::parse_spec("memsched:42:5");
    ASSERT_TRUE(s.memory_kind());
    MemoryBudget a(0, nullptr, s);
    MemoryBudget b(0, nullptr, s);
    std::vector<bool> ra, rb;
    for (int i = 0; i < 200; ++i) ra.push_back(a.try_charge(1));
    for (int i = 0; i < 200; ++i) rb.push_back(b.try_charge(1));
    EXPECT_EQ(ra, rb);  // same seed, same schedule, any instance
    EXPECT_GT(a.denials(), 0u);
    EXPECT_LT(a.denials(), 200u);
}

TEST(MemoryBudget, ZeroByteChargeIsFreeAndUncounted) {
    Spec s = ucp::fault::parse_spec("mem:1");  // first counted charge denied
    MemoryBudget b(0, nullptr, s);
    EXPECT_TRUE(b.try_charge(0));   // not a charge: no index consumed
    EXPECT_FALSE(b.try_charge(8));  // this is charge #1
    EXPECT_TRUE(b.try_charge(8));
}

TEST(MemTracker, SyncsTheDeltaAndReleasesOnDestruction) {
    MemoryBudget b(0, nullptr, no_fault());
    {
        MemTracker t(&b);
        EXPECT_TRUE(t.governed());
        EXPECT_TRUE(t.sync(100));
        EXPECT_EQ(b.used(), 100u);
        EXPECT_TRUE(t.sync(150));  // +50 only
        EXPECT_EQ(b.used(), 150u);
        EXPECT_TRUE(t.sync(80));   // shrink always succeeds
        EXPECT_EQ(b.used(), 80u);
        EXPECT_EQ(t.charged(), 80u);
    }
    EXPECT_EQ(b.used(), 0u);  // destructor released the outstanding charge
}

TEST(MemTracker, DeniedGrowthLeavesChargeUnchanged) {
    MemoryBudget b(100, nullptr, no_fault());
    MemTracker t(&b);
    EXPECT_TRUE(t.sync(90));
    EXPECT_FALSE(t.sync(200));     // +110 denied
    EXPECT_EQ(t.charged(), 90u);   // caller can shed and retry
    EXPECT_EQ(b.used(), 90u);
    EXPECT_TRUE(t.sync(100));      // retry after shedding fits
    t.reset();
    EXPECT_EQ(b.used(), 0u);
}

TEST(MemTracker, NullBudgetIsUngoverned) {
    MemTracker t;
    EXPECT_FALSE(t.governed());
    EXPECT_TRUE(t.sync(1u << 30));  // no budget: every sync succeeds
    EXPECT_EQ(t.charged(), 0u);     // and nothing is counted
}

TEST(Budget, MemoryDenialTripsResourceExhausted) {
    MemoryBudget mem(0, nullptr, ucp::fault::parse_spec("mem:1:1000000"));
    BudgetOptions opt;
    opt.memory = &mem;
    Budget gov(opt);
    EXPECT_FALSE(gov.charge_memory(64));
    EXPECT_EQ(gov.charge_iteration(), Status::kResourceExhausted);
    // Memory is a pooled resource: the sticky trip carries into every fork.
    Budget child = gov.fork();
    EXPECT_EQ(child.charge_iteration(), Status::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Degradation-ladder tests: the full two-level pipeline under injected OOM.

TEST(MemLadder, SingleDenialDegradesAndRecovers) {
    const ucp::pla::Pla pla = random_pla(7);
    TwoLevelOptions ref;
    const auto want = minimize_two_level(pla, ref);
    ASSERT_TRUE(want.verified);

    // One denied charge somewhere in the pipeline: stage 1 (shed + retry) or
    // the explicit fallback absorbs it and the solve still completes.
    for (const char* spec : {"mem:1", "mem:3", "mem:10"}) {
        MemoryBudget mem(0, nullptr, ucp::fault::parse_spec(spec));
        TwoLevelOptions tl;
        tl.budget.memory = &mem;
        const auto got = minimize_two_level(pla, tl);
        EXPECT_TRUE(got.verified) << spec;
        EXPECT_GE(mem.denials(), 1u) << spec;
        EXPECT_EQ(mem.used(), 0u) << spec;  // everything released
    }
}

TEST(MemLadder, PersistentDenialReturnsAnytimeIncumbent) {
    const ucp::pla::Pla pla = random_pla(11);
    MemoryBudget mem(0, nullptr, ucp::fault::parse_spec("mem:2:100000000"));
    TwoLevelOptions tl;
    tl.budget.memory = &mem;
    const auto r = minimize_two_level(pla, tl);
    // Every charge from #2 on is denied: the DD phase trips to the explicit
    // fallback and the final table charge degrades to the greedy incumbent.
    EXPECT_EQ(r.status, Status::kResourceExhausted);
    EXPECT_TRUE(r.verified);        // the anytime cover is still equivalent
    EXPECT_GT(r.cover.size(), 0u);  // and non-trivial
    EXPECT_EQ(mem.used(), 0u);
}

TEST(MemLadder, ScheduledDenialsNeverCrash) {
    const ucp::pla::Pla pla = random_pla(13);
    for (std::uint64_t period : {2u, 5u, 17u}) {
        const std::string spec =
            "memsched:99:" + std::to_string(period);
        MemoryBudget mem(0, nullptr, ucp::fault::parse_spec(spec.c_str()));
        TwoLevelOptions tl;
        tl.budget.memory = &mem;
        const auto r = minimize_two_level(pla, tl);
        EXPECT_TRUE(r.status == Status::kOk ||
                    r.status == Status::kResourceExhausted)
            << spec << " -> " << ucp::to_string(r.status);
        EXPECT_TRUE(r.verified) << spec;
        EXPECT_EQ(mem.used(), 0u) << spec;
    }
}

TEST(MemLadder, TightCapDegradesByStages) {
    const ucp::pla::Pla pla = random_pla(17);
    const auto before = ucp::stats::snapshot();
    // 64 KB: a third of this run's ungoverned footprint (186 KB).
    MemoryBudget mem(64u << 10, nullptr, no_fault());
    TwoLevelOptions tl;
    tl.budget.memory = &mem;
    const auto r = minimize_two_level(pla, tl);
    EXPECT_TRUE(r.status == Status::kOk ||
                r.status == Status::kResourceExhausted);
    EXPECT_TRUE(r.verified);
    EXPECT_LE(mem.high_water(), mem.cap());
    EXPECT_EQ(mem.used(), 0u);
    // At least one rung of the ladder fired under a cap this tight.
    const auto after = ucp::stats::snapshot();
    const auto delta = [&](const char* k) {
        const auto ia = after.find(k), ib = before.find(k);
        return (ia == after.end() ? 0.0 : ia->second) -
               (ib == before.end() ? 0.0 : ib->second);
    };
    EXPECT_GT(delta("mem.denied") + delta("mem.cache_sheds") +
                  delta("mem.forced_gcs") + delta("mem.dd_trips") +
                  delta("mem.exhausted"),
              0.0);
}

TEST(MemLadder, GenerousCapMatchesUngovernedResult) {
    const ucp::pla::Pla pla = random_pla(19);
    TwoLevelOptions ref;
    const auto want = minimize_two_level(pla, ref);

    MemoryBudget mem(1u << 30, nullptr, no_fault());  // 1 GB: never denies
    TwoLevelOptions tl;
    tl.budget.memory = &mem;
    const auto got = minimize_two_level(pla, tl);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.literals, want.literals);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(mem.denials(), 0u);
    EXPECT_GT(mem.high_water(), 0u);  // accounting actually happened
    EXPECT_EQ(mem.used(), 0u);
}

// ---------------------------------------------------------------------------
// Per-instance isolation: a parallel map of the pipeline in which every
// instance charges its own capped accountant. A starved instance degrades
// alone, and every slot equals the serial call at any thread count.

TwoLevelResult minimize_capped(const ucp::pla::Pla& pla, std::size_t cap) {
    MemoryBudget mem(cap, nullptr, no_fault());
    TwoLevelOptions tl;
    tl.budget.memory = &mem;
    return minimize_two_level(pla, tl);
}

void expect_same_answer(const TwoLevelResult& got, const TwoLevelResult& want) {
    EXPECT_EQ(got.cover.to_string(), want.cover.to_string());
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.literals, want.literals);
    EXPECT_EQ(got.lower_bound, want.lower_bound);
    EXPECT_EQ(got.proved_optimal, want.proved_optimal);
    EXPECT_EQ(got.verified, want.verified);
    EXPECT_EQ(got.status, want.status);
}

TEST(MemLadder, PerInstanceCapIsolatesDegradation) {
    std::vector<ucp::pla::Pla> plas;
    for (const char* name : {"ti", "pdc", "ex5"})
        plas.push_back(ucp::gen::instance_by_name(name));
    // 64 KB: ti and pdc fit after shedding, ex5's table charge is denied.
    constexpr std::size_t kCap = 64u << 10;

    std::vector<TwoLevelResult> serial;
    std::size_t kept = 0, degraded = 0;
    for (const auto& pla : plas) {
        SCOPED_TRACE(pla.name);
        serial.push_back(minimize_capped(pla, kCap));
        const TwoLevelResult& r = serial.back();
        const TwoLevelResult uncapped = minimize_two_level(pla);
        EXPECT_TRUE(r.verified);
        if (r.status == Status::kOk) {
            ++kept;
            expect_same_answer(r, uncapped);
        } else {
            // Degraded to the greedy cover: verified, never better.
            ++degraded;
            EXPECT_EQ(r.status, Status::kResourceExhausted);
            EXPECT_GE(r.cost, uncapped.cost);
            EXPECT_FALSE(r.proved_optimal);
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(degraded, 0u);

    for (const int threads : {1, 2, 4}) {
        const auto got = ucp::parallel_map(
            plas.size(), threads,
            [&](std::size_t i) { return minimize_capped(plas[i], kCap); });
        ASSERT_EQ(got.size(), plas.size());
        for (std::size_t i = 0; i < plas.size(); ++i) {
            SCOPED_TRACE("threads " + std::to_string(threads) + ", " +
                         plas[i].name);
            expect_same_answer(got[i], serial[i]);
        }
    }
}

}  // namespace
