// Decomposition-parallel exact solver: the parallel search must return
// bit-identical optimal costs to the sequential reference across thread
// counts, detect blocks that only appear after reductions, honour the
// governor cooperatively from every worker, and pin the block counters on
// crafted instances.
#include <gtest/gtest.h>

#include "gen/scp_gen.hpp"
#include "solver/bnb.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/work_deque.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::solver::BnbOptions;
using ucp::solver::solve_exact;

CoverMatrix block_diagonal(const std::vector<CoverMatrix>& blocks) {
    std::vector<std::vector<Index>> rows;
    std::vector<Cost> costs;
    Index col_base = 0;
    for (const auto& b : blocks) {
        for (Index i = 0; i < b.num_rows(); ++i) {
            std::vector<Index> r;
            for (const Index j : b.row(i)) r.push_back(col_base + j);
            rows.push_back(std::move(r));
        }
        for (Index j = 0; j < b.num_cols(); ++j) costs.push_back(b.cost(j));
        col_base += b.num_cols();
    }
    return CoverMatrix::from_rows(col_base, std::move(rows), std::move(costs));
}

/// Runs the decomposition-parallel solver at 1, 2 and 4 threads and checks
/// each result against the sequential non-decomposing reference: identical
/// optimal cost, a feasible cover whose cost matches, optimality proven.
void expect_parallel_matches_reference(const CoverMatrix& m,
                                       const char* label) {
    BnbOptions ref_opt;
    ref_opt.decompose = false;
    const auto ref = solve_exact(m, ref_opt);
    ASSERT_TRUE(ref.optimal) << label;

    for (const int threads : {1, 2, 4}) {
        BnbOptions opt;
        opt.decompose = true;
        opt.num_threads = threads;
        const auto r = solve_exact(m, opt);
        ASSERT_TRUE(r.optimal) << label << " threads=" << threads;
        EXPECT_EQ(r.cost, ref.cost) << label << " threads=" << threads;
        EXPECT_TRUE(m.is_feasible(r.solution))
            << label << " threads=" << threads;
        EXPECT_EQ(m.solution_cost(r.solution), r.cost)
            << label << " threads=" << threads;
        EXPECT_EQ(r.lower_bound, r.cost) << label << " threads=" << threads;
    }
}

TEST(BnbParallel, DifferentialRandomSingleAndMultiBlock) {
    ucp::Rng seeds(907);
    for (int trial = 0; trial < 12; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 9;
        g.cols = 11;
        g.density = 0.22 + 0.02 * (trial % 4);
        g.min_cost = 1;
        g.max_cost = 1 + trial % 4;
        g.seed = seeds();
        const CoverMatrix a = ucp::gen::random_scp(g);

        // 1 block, then 2, then many (trial-dependent).
        std::vector<CoverMatrix> parts = {a};
        if (trial % 3 >= 1) {
            g.seed = seeds();
            parts.push_back(ucp::gen::random_scp(g));
        }
        if (trial % 3 == 2) {
            parts.push_back(ucp::gen::cyclic_matrix(7, 3));
            parts.push_back(ucp::gen::cyclic_matrix(5, 2));
        }
        const CoverMatrix m = block_diagonal(parts);
        expect_parallel_matches_reference(
            m, ("trial " + std::to_string(trial)).c_str());
    }
}

TEST(BnbParallel, AllBoundsAgreeUnderDecomposition) {
    const CoverMatrix m = block_diagonal(
        {ucp::gen::cyclic_matrix(7, 3), ucp::gen::mis_vs_dual_example(),
         ucp::gen::dual_vs_lp_example()});
    const Cost expect = 3 + 2 + 3;
    for (const auto bound :
         {ucp::solver::BnbBound::kMis, ucp::solver::BnbBound::kDualAscent,
          ucp::solver::BnbBound::kLagrangian, ucp::solver::BnbBound::kLp,
          ucp::solver::BnbBound::kIncrementalMis}) {
        for (const int threads : {1, 2, 4}) {
            BnbOptions opt;
            opt.bound = bound;
            opt.num_threads = threads;
            const auto r = solve_exact(m, opt);
            ASSERT_TRUE(r.optimal);
            EXPECT_EQ(r.cost, expect) << "threads=" << threads;
        }
    }
}

TEST(BnbParallel, BlocksFoundPinnedOnCraftedCases) {
    // Blocks of < 8 rows: the in-node scan is below the small-core cutoff,
    // so at 1 thread the counter delta is exactly the top-level block count.
    const CoverMatrix m = block_diagonal({ucp::gen::cyclic_matrix(5, 2),
                                         ucp::gen::cyclic_matrix(7, 3),
                                         ucp::gen::cyclic_matrix(4, 2)});
    auto& found = ucp::stats::counter("bnb.blocks_found");
    const auto before = found.value();
    BnbOptions opt;
    opt.num_threads = 1;
    const auto r = solve_exact(m, opt);
    ASSERT_TRUE(r.optimal);
    EXPECT_EQ(r.blocks, 3u);
    EXPECT_EQ(found.value() - before, 3u);
    EXPECT_EQ(r.cost, 3 + 3 + 2);

    // The top-level block count stays deterministic at any thread count.
    for (const int threads : {2, 4}) {
        opt.num_threads = threads;
        EXPECT_EQ(solve_exact(m, opt).blocks, 3u);
    }
}

TEST(BnbParallel, SingleBlockInstanceReportsOneBlock) {
    BnbOptions opt;
    opt.num_threads = 4;
    const auto r = solve_exact(ucp::gen::cyclic_matrix(11, 3), opt);
    ASSERT_TRUE(r.optimal);
    EXPECT_EQ(r.blocks, 1u);
    EXPECT_EQ(r.cost, 4);  // ⌈11/3⌉
}

TEST(BnbParallel, DecomposesOnlyAfterRowDominance) {
    // Two cyclic blocks coupled by one bridge row whose column set is a
    // strict superset of block A's row 0: connected as written, but row
    // dominance deletes the bridge at the root and the core splits in two.
    const CoverMatrix base = block_diagonal(
        {ucp::gen::cyclic_matrix(6, 2), ucp::gen::cyclic_matrix(7, 3)});
    std::vector<std::vector<Index>> rows;
    for (Index i = 0; i < base.num_rows(); ++i) {
        rows.emplace_back(base.row(i).begin(), base.row(i).end());
    }
    std::vector<Index> bridge(base.row(0).begin(), base.row(0).end());
    for (const Index j : base.row(6)) bridge.push_back(j);  // block B columns
    rows.push_back(std::move(bridge));
    std::vector<Cost> costs(base.num_cols(), 1);
    const CoverMatrix m = CoverMatrix::from_rows(
        base.num_cols(), std::move(rows), std::move(costs));

    BnbOptions opt;
    opt.num_threads = 1;
    const auto r = solve_exact(m, opt);
    ASSERT_TRUE(r.optimal);
    EXPECT_EQ(r.blocks, 2u);  // split appeared only after the reduction
    EXPECT_EQ(r.cost, 3 + 3);
    expect_parallel_matches_reference(m, "bridge-row");
}

TEST(BnbParallel, DecomposesOnlyAfterEssentialFixing) {
    // A bridge column ties the blocks together but has a private singleton
    // row: it is essential, fixing it kills the bridged rows, and each
    // remaining block re-reduces to a 4-row cyclic core (cyclic(6,3) minus
    // one row), so the split only appears after the essential fixing.
    const CoverMatrix base = block_diagonal(
        {ucp::gen::cyclic_matrix(6, 3), ucp::gen::cyclic_matrix(6, 3)});
    std::vector<std::vector<Index>> rows;
    for (Index i = 0; i < base.num_rows(); ++i) {
        rows.emplace_back(base.row(i).begin(), base.row(i).end());
    }
    const Index bridge = base.num_cols();
    for (Index i = 0; i < base.num_rows(); ++i)
        if (i == 0 || i == 6) rows[i].push_back(bridge);
    rows.push_back({bridge});  // singleton row: bridge is essential
    std::vector<Cost> costs(base.num_cols() + 1, 1);
    const CoverMatrix m = CoverMatrix::from_rows(
        base.num_cols() + 1, std::move(rows), std::move(costs));

    BnbOptions opt;
    opt.num_threads = 1;
    const auto r = solve_exact(m, opt);
    ASSERT_TRUE(r.optimal);
    EXPECT_EQ(r.blocks, 2u);
    expect_parallel_matches_reference(m, "bridge-column");
}

TEST(BnbParallel, CancelIsObservedCooperativelyByAllWorkers) {
    ucp::CancelToken cancel;
    cancel.cancel();  // tripped before the search even starts
    ucp::Budget budget({}, &cancel);
    BnbOptions opt;
    opt.num_threads = 4;
    opt.governor = &budget;
    const CoverMatrix m = block_diagonal(
        {ucp::gen::cyclic_matrix(12, 5), ucp::gen::cyclic_matrix(13, 5),
         ucp::gen::cyclic_matrix(11, 4)});
    const auto r = solve_exact(m, opt);
    EXPECT_FALSE(r.optimal);
    EXPECT_EQ(r.status, ucp::Status::kCancelled);
    EXPECT_TRUE(m.is_feasible(r.solution));  // greedy fallback still served
    EXPECT_LE(r.lower_bound, r.cost);
}

TEST(BnbParallel, DeadlineTruncationStaysFeasibleInParallel) {
    ucp::BudgetOptions bo;
    bo.iteration_cap = 3;  // a few nodes per forked subtask, then trip
    ucp::Budget budget(bo);
    BnbOptions opt;
    opt.num_threads = 4;
    opt.governor = &budget;
    const CoverMatrix m = block_diagonal(
        {ucp::gen::cyclic_matrix(15, 4), ucp::gen::cyclic_matrix(14, 3)});
    const auto r = solve_exact(m, opt);
    EXPECT_TRUE(m.is_feasible(r.solution));
    EXPECT_LE(r.lower_bound, r.cost);
    if (!r.optimal) {
        EXPECT_NE(r.status, ucp::Status::kOk);
    }
}

TEST(WorkDeque, OwnerPopsLifoThiefStealsFifo) {
    ucp::WorkDeque<int> dq;
    dq.push_bottom(1);
    dq.push_bottom(2);
    dq.push_bottom(3);
    int v = 0;
    ASSERT_TRUE(dq.try_steal_top(v));
    EXPECT_EQ(v, 1);  // thief takes the oldest
    ASSERT_TRUE(dq.try_pop_bottom(v));
    EXPECT_EQ(v, 3);  // owner takes the newest
    ASSERT_TRUE(dq.try_pop_bottom(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(dq.try_pop_bottom(v));
    EXPECT_FALSE(dq.try_steal_top(v));
}

TEST(WorkDeque, SetDrainsAcrossWorkers) {
    ucp::WorkDequeSet<int> set(2);
    set.add_pending(3);
    set.deque(0).push_bottom(10);
    set.deque(0).push_bottom(11);
    set.deque(1).push_bottom(12);
    int sum = 0;
    int v = 0;
    bool stole = false;
    int steals = 0;
    // Worker 1 drains everything: one local task, two steals from worker 0.
    while (!set.drained()) {
        if (!set.acquire(1, v, stole)) break;
        sum += v;
        if (stole) ++steals;
        set.finish();
    }
    EXPECT_TRUE(set.drained());
    EXPECT_EQ(sum, 10 + 11 + 12);
    EXPECT_EQ(steals, 2);
}

}  // namespace
