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
#include "gen/scp_gen.hpp"
#include "solver/batch.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"
#include "util/stats.hpp"

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
    MemoryBudget mem(256u << 10, nullptr, no_fault());  // 256 KB, very tight
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
// Batch per-item isolation: one starved item degrades, the rest are exact,
// and the batch is a parallel map of solve_one at any thread count.

TEST(MemLadder, BatchPerItemCapIsolatesDegradation) {
    std::vector<ucp::cov::CoverMatrix> batch;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        ucp::gen::RandomScpOptions g;
        g.rows = 60;
        g.cols = 80;
        g.density = 0.08;
        g.min_cost = 1;
        g.max_cost = 4;
        g.seed = seed;
        batch.push_back(ucp::gen::random_scp(g));
    }
    ucp::solver::BatchOptions ref;
    const auto want = ucp::solver::BatchSolver(ref).solve(batch);

    ucp::solver::BatchOptions opt;
    opt.mem_budget_per_item = 4u << 10;  // 4 KB: every core charge is denied
    const auto got = ucp::solver::BatchSolver(opt).solve(batch);
    ASSERT_EQ(got.items.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto& it = got.items[i];
        EXPECT_TRUE(batch[i].is_feasible(it.solution)) << i;
        EXPECT_TRUE(it.status == Status::kOk ||
                    it.status == Status::kResourceExhausted)
            << i;
        if (it.status == Status::kResourceExhausted) {
            // Degraded to greedy: still feasible, never better than exact.
            EXPECT_GE(it.cost, want.items[i].cost) << i;
            EXPECT_FALSE(it.proved_optimal) << i;
        }
    }
    // A cap this small must actually starve the non-trivial cores.
    std::size_t degraded = 0;
    for (const auto& it : got.items)
        if (it.status == Status::kResourceExhausted) ++degraded;
    EXPECT_GT(degraded, 0u);

    // Every slot of the batch equals solve_one under the same options, field
    // for field, with and without the per-item cap and at every thread count.
    for (const std::size_t cap : {std::size_t{0}, std::size_t{4u << 10}}) {
        for (const int threads : {1, 2, 4}) {
            ucp::solver::BatchOptions o;
            o.mem_budget_per_item = cap;
            o.num_threads = threads;
            const auto res = ucp::solver::BatchSolver(o).solve(batch);
            ASSERT_EQ(res.items.size(), batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                SCOPED_TRACE("cap " + std::to_string(cap) + ", threads " +
                             std::to_string(threads) + ", item " +
                             std::to_string(i));
                const auto one = ucp::solver::BatchSolver::solve_one(batch[i], o);
                const auto& it = res.items[i];
                EXPECT_EQ(one.solution, it.solution);
                EXPECT_EQ(one.cost, it.cost);
                EXPECT_EQ(one.lower_bound, it.lower_bound);
                EXPECT_EQ(one.proved_optimal, it.proved_optimal);
                EXPECT_EQ(one.status, it.status);
                EXPECT_EQ(one.core_rows, it.core_rows);
                EXPECT_EQ(one.core_cols, it.core_cols);
                EXPECT_EQ(one.scg_runs, it.scg_runs);
            }
        }
    }
}

}  // namespace
