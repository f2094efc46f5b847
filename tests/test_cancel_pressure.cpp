// Cancellation under memory pressure: the combination the daemon will live
// in — parallel solvers whose governor is simultaneously being cancelled
// (CancelToken / fork()ed Budgets) and starved (injected allocation
// failures). Every worker must drain cooperatively, every release must
// balance its charge (the suite runs under ASan leak detection and the TSan
// lane of scripts/tier1.sh), and the reported status must reflect the first
// trip — never a crash, never a hang.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "solver/bnb.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"
#include "util/thread_pool.hpp"

namespace {

// Hermetic against ambient chaos-sweep state (see test_anytime.cpp).
const bool g_env_cleared = [] {
    unsetenv("UCP_FAULT");
    unsetenv("UCP_MEM_BUDGET");
    return true;
}();

using ucp::Budget;
using ucp::BudgetOptions;
using ucp::CancelToken;
using ucp::MemoryBudget;
using ucp::Status;
using ucp::cov::CoverMatrix;
using ucp::cov::Cost;
using ucp::cov::Index;
using ucp::solver::BnbOptions;
using ucp::solver::solve_exact;
using ucp::solver::TwoLevelOptions;

CoverMatrix hard_instance(std::uint64_t seed) {
    ucp::gen::RandomScpOptions g;
    g.rows = 70;
    g.cols = 90;
    g.density = 0.07;
    g.min_cost = 1;
    g.max_cost = 5;
    g.seed = seed;
    return ucp::gen::random_scp(g);
}

TEST(CancelPressure, ParallelBnbUnderScheduledDenials) {
    const CoverMatrix m = hard_instance(3);
    for (const char* spec : {"mem:1:100000000", "memsched:7:3"}) {
        MemoryBudget mem(0, nullptr, ucp::fault::parse_spec(spec));
        BudgetOptions bo;
        bo.memory = &mem;
        Budget budget(bo);
        BnbOptions opt;
        opt.num_threads = 4;
        opt.governor = &budget;
        const auto r = solve_exact(m, opt);
        // Workers drained, the incumbent is feasible, and the charge ledger
        // is balanced (nothing left outstanding after the solve).
        EXPECT_TRUE(m.is_feasible(r.solution)) << spec;
        EXPECT_LE(r.lower_bound, r.cost) << spec;
        EXPECT_EQ(mem.used(), 0u) << spec;
        if (!r.optimal) EXPECT_NE(r.status, Status::kOk) << spec;
    }
}

TEST(CancelPressure, PreTrippedGovernorStopsForkedWorkersImmediately) {
    const CoverMatrix m = hard_instance(5);
    MemoryBudget mem(0, nullptr, ucp::fault::parse_spec("mem:1:100000000"));
    BudgetOptions bo;
    bo.memory = &mem;
    Budget budget(bo);
    ASSERT_FALSE(budget.charge_memory(64));  // trip before the search starts
    BnbOptions opt;
    opt.num_threads = 4;
    opt.governor = &budget;
    const auto r = solve_exact(m, opt);
    // fork() inherits the sticky kResourceExhausted trip, so every subtask
    // aborts at its first poll and the greedy incumbent is served.
    EXPECT_FALSE(r.optimal);
    EXPECT_EQ(r.status, Status::kResourceExhausted);
    EXPECT_TRUE(m.is_feasible(r.solution));
    EXPECT_EQ(mem.used(), 0u);
}

TEST(CancelPressure, CancelRacesAllocationFailureWithoutHanging) {
    const CoverMatrix m = hard_instance(7);
    for (int round = 0; round < 3; ++round) {
        CancelToken cancel;
        MemoryBudget mem(0, nullptr, ucp::fault::parse_spec("memsched:13:4"));
        BudgetOptions bo;
        bo.memory = &mem;
        Budget budget(bo, &cancel);
        BnbOptions opt;
        opt.num_threads = 4;
        opt.governor = &budget;
        // Cancel from another thread while workers are both solving and
        // being denied allocations — the classic shutdown-under-pressure
        // race. The solve must return a feasible incumbent either way.
        std::thread killer([&cancel] { cancel.cancel(); });
        const auto r = solve_exact(m, opt);
        killer.join();
        EXPECT_TRUE(m.is_feasible(r.solution)) << round;
        EXPECT_EQ(mem.used(), 0u) << round;
        if (!r.optimal) {
            EXPECT_TRUE(r.status == Status::kCancelled ||
                        r.status == Status::kResourceExhausted ||
                        r.status == Status::kDeadline)
                << round << ": " << ucp::to_string(r.status);
        }
    }
}

TEST(CancelPressure, ParallelMapDrainsUnderPerInstanceStarvation) {
    std::vector<ucp::pla::Pla> plas;
    for (const char* name : {"ti", "ex4", "pdc", "ex5", "t1"})
        plas.push_back(ucp::gen::instance_by_name(name));
    // One parallel map of the pipeline, every instance under its own 4 KB
    // accountant: starves every non-trivial instance.
    const auto run = [&](int threads) {
        std::vector<std::unique_ptr<MemoryBudget>> mems(plas.size());
        auto res = ucp::parallel_map(plas.size(), threads, [&](std::size_t i) {
            mems[i] = std::make_unique<MemoryBudget>(4u << 10, nullptr,
                                                     ucp::fault::Spec{});
            TwoLevelOptions tl;
            tl.budget.memory = mems[i].get();
            return ucp::solver::minimize_two_level(plas[i], tl);
        });
        for (std::size_t i = 0; i < plas.size(); ++i)
            EXPECT_EQ(mems[i]->used(), 0u) << plas[i].name;  // ledger balanced
        return res;
    };
    const auto res = run(4);
    ASSERT_EQ(res.size(), plas.size());
    for (std::size_t i = 0; i < plas.size(); ++i) {
        EXPECT_TRUE(res[i].verified) << plas[i].name;
        EXPECT_TRUE(res[i].status == Status::kOk ||
                    res[i].status == Status::kResourceExhausted)
            << plas[i].name;
    }
    // Thread count must not change what degrades or what it degrades to.
    const auto ref = run(1);
    for (std::size_t i = 0; i < plas.size(); ++i) {
        EXPECT_EQ(res[i].cover.to_string(), ref[i].cover.to_string())
            << plas[i].name;
        EXPECT_EQ(res[i].status, ref[i].status) << plas[i].name;
    }
}

}  // namespace
