// Decomposition-parallel exact solver: the parallel search must return
// bit-identical optimal costs to the sequential reference across thread
// counts, hand branches to idle workers, detect blocks that only appear
// after reductions, honour the governor cooperatively from every worker
// (forking it only when there is more than one), and pin the block counters
// on crafted instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "gen/scp_gen.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/mem_budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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

/// Runs the decomposition-parallel solver at 1, 2, 3, 4 and 8 threads — one
/// worker taking several blocks as well as more workers than blocks — and
/// checks each result against the sequential non-decomposing reference:
/// identical optimal cost, a feasible cover whose cost matches, optimality
/// proven.
void expect_parallel_matches_reference(const CoverMatrix& m,
                                       const char* label) {
    BnbOptions ref_opt;
    ref_opt.decompose = false;
    const auto ref = solve_exact(m, ref_opt);
    ASSERT_TRUE(ref.optimal) << label;

    for (const int threads : {1, 2, 3, 4, 8}) {
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

/// The differential suite: 12 random weighted matrices of 1, 2 or 4 blocks,
/// then 3 of perfbench's scp_exact shape (one 100×45 unicost block with 2-3
/// root branches, shared between workers by handing over branches).
std::vector<std::pair<std::string, CoverMatrix>> differential_instances() {
    std::vector<std::pair<std::string, CoverMatrix>> out;
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
        out.emplace_back("trial " + std::to_string(trial),
                         block_diagonal(parts));
    }
    for (int trial = 0; trial < 3; ++trial) {
        ucp::gen::UnicostScpOptions u;
        u.rows = 100;
        u.cols = 45;
        u.cols_per_row = 3;
        u.seed = seeds();
        out.emplace_back("unicost trial " + std::to_string(trial),
                         ucp::gen::unicost_scp(u));
    }
    return out;
}

/// The differential suite's scp_exact-shaped instances.
std::vector<CoverMatrix> unicost_instances() {
    std::vector<CoverMatrix> out;
    for (auto& [label, m] : differential_instances())
        if (label.rfind("unicost", 0) == 0) out.push_back(std::move(m));
    return out;
}

TEST(BnbParallel, DifferentialRandomSingleAndMultiBlock) {
    for (const auto& [label, m] : differential_instances())
        expect_parallel_matches_reference(m, label.c_str());
}

TEST(BnbParallel, SharedBranchesMatchSequentialReference) {
    // Single blocks that 2-8 workers share by handing over branches. Below
    // a root branch the nodes (a) split into blocks: a weighted random
    // block and STS(9) joined by one 2-column row, the branch row; (b) are
    // solved by their reductions: C(10, 3) minus one column's rows is an
    // interval matrix; (c) have fewer branches than the root: STS(15).
    ucp::gen::RandomScpOptions g;
    g.rows = 12;
    g.cols = 14;
    g.density = 0.25;
    g.max_cost = 3;
    g.seed = 78;
    const CoverMatrix weighted = ucp::gen::random_scp(g);
    const CoverMatrix pair =
        block_diagonal({weighted, ucp::gen::steiner_triple_cover(9)});
    std::vector<std::vector<Index>> rows;
    std::vector<Cost> costs;
    for (Index i = 0; i < pair.num_rows(); ++i)
        rows.emplace_back(pair.row(i).begin(), pair.row(i).end());
    rows.push_back({0, weighted.num_cols()});
    for (Index j = 0; j < pair.num_cols(); ++j) costs.push_back(pair.cost(j));
    const CoverMatrix linked = CoverMatrix::from_rows(
        pair.num_cols(), std::move(rows), std::move(costs));
    // Against the sequential reference, a branch that no worker searches
    // leaves a worse answer standing: the greedy cover of the "decomposes"
    // case is not optimal.
    BnbOptions sequential;
    sequential.num_threads = 1;
    EXPECT_GT(ucp::solver::chvatal_greedy(linked).cost,
              solve_exact(linked, sequential).cost);

    std::vector<std::pair<std::string, CoverMatrix>> cases = {
        {"decomposes", linked},
        {"solved-by-reductions", ucp::gen::cyclic_matrix(10, 3)},
        {"fewer-branches", ucp::gen::steiner_triple_cover(15)}};
    for (CoverMatrix& m : unicost_instances())
        cases.emplace_back("unicost " + std::to_string(cases.size() - 3),
                           std::move(m));
    for (const auto& [label, m] : cases) {
        const auto ref = solve_exact(m, sequential);
        ASSERT_TRUE(ref.optimal) << label;
        for (const int threads : {1, 2, 3, 4, 8}) {
            BnbOptions opt;
            opt.num_threads = threads;
            const auto r = solve_exact(m, opt);
            EXPECT_EQ(r.blocks, 1u) << label << " threads=" << threads;
            EXPECT_EQ(r.cost, ref.cost) << label << " threads=" << threads;
            EXPECT_EQ(r.optimal, ref.optimal) << label << " threads=" << threads;
            EXPECT_EQ(r.lower_bound, ref.lower_bound)
                << label << " threads=" << threads;
            EXPECT_TRUE(m.is_feasible(r.solution))
                << label << " threads=" << threads;
        }
    }
}

TEST(BnbParallel, IdleWorkersTakeHandedOffBranches) {
    // One block and four workers: the three that find no block to start
    // wait, and the search hands them branches. One call could end before
    // its other threads get to wait; three calls in a row do not.
    auto& steals = ucp::stats::counter("bnb.steals");
    auto& root_tasks = ucp::stats::counter("bnb.root_tasks");
    const auto steals0 = steals.value();
    for (const CoverMatrix& m : unicost_instances()) {
        BnbOptions opt;
        opt.num_threads = 4;
        const auto tasks0 = root_tasks.value();
        const auto r = solve_exact(m, opt);
        ASSERT_TRUE(r.optimal);
        EXPECT_EQ(r.blocks, 1u);
        EXPECT_EQ(root_tasks.value() - tasks0, 1u);  // the initial items
    }
    EXPECT_GT(steals.value() - steals0, 0u);

    // One worker never hands off: it is the sequential reference.
    const auto steals1 = steals.value();
    BnbOptions one;
    one.num_threads = 1;
    for (const CoverMatrix& m : unicost_instances()) (void)solve_exact(m, one);
    EXPECT_EQ(steals.value(), steals1);
}

TEST(BnbParallel, MisFloorPrunesAtLeastAsMuchAsMis) {
    // Every node's bound is max(MIS, chosen bound), so at one worker the
    // default search prunes every subtree the MIS search prunes. A pruned
    // subtree holds no strictly better cover, so the incumbent sequence is
    // the same and the default expands no more nodes.
    for (const auto& [label, m] : differential_instances()) {
        BnbOptions mis;
        mis.bound = ucp::solver::BnbBound::kMis;
        const auto by_mis = solve_exact(m, mis);
        const auto by_default = solve_exact(m, BnbOptions{});
        ASSERT_TRUE(by_mis.optimal && by_default.optimal) << label;
        EXPECT_EQ(by_default.cost, by_mis.cost) << label;
        EXPECT_LE(by_default.nodes, by_mis.nodes) << label;
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
    // Two blocks, then one that the four workers share by hand-offs.
    std::vector<CoverMatrix> cases = {block_diagonal(
        {ucp::gen::cyclic_matrix(15, 4), ucp::gen::cyclic_matrix(14, 3)})};
    cases.push_back(unicost_instances().front());
    for (const CoverMatrix& m : cases) {
        ucp::BudgetOptions bo;
        bo.iteration_cap = 3;  // a few nodes per forked item, then trip
        ucp::Budget budget(bo);
        BnbOptions opt;
        opt.num_threads = 4;
        opt.governor = &budget;
        const auto r = solve_exact(m, opt);
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_LE(r.lower_bound, r.cost);
        if (!r.optimal) {
            EXPECT_NE(r.status, ucp::Status::kOk);
        }
    }
}

TEST(BnbParallel, GovernorForkedOnlyAcrossWorkers) {
    // One worker charges the caller's governor directly (the sequential
    // reference keeps its trip points); with more, every item, handed-off
    // branches included, charges its own fork and the caller's counters
    // stay untouched. The explicit uncapped accountant keeps the ambient
    // chaos-lane memory faults out.
    std::vector<CoverMatrix> cases = {block_diagonal(
        {ucp::gen::cyclic_matrix(12, 5), ucp::gen::cyclic_matrix(13, 5),
         ucp::gen::cyclic_matrix(11, 4)})};
    cases.push_back(unicost_instances().front());
    ucp::MemoryBudget uncapped(0, nullptr, ucp::fault::Spec{});
    ucp::BudgetOptions bo;
    bo.memory = &uncapped;
    for (const CoverMatrix& m : cases) {
        for (const int threads : {1, 4}) {
            ucp::Budget budget(bo);
            BnbOptions opt;
            opt.num_threads = threads;
            opt.governor = &budget;
            const auto r = solve_exact(m, opt);
            ASSERT_TRUE(r.optimal) << "threads=" << threads;
            ASSERT_GT(r.nodes, 0u) << "threads=" << threads;
            if (threads == 1)
                EXPECT_GT(budget.iterations_charged(), 0u);
            else
                EXPECT_EQ(budget.iterations_charged(), 0u);
        }
    }
}

}  // namespace
