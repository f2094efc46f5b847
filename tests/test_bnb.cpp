// Exact branch-and-bound: optimality vs brute force, bound variants agree,
// limit-bound pruning is safe, budget truncation is reported honestly.
#include <gtest/gtest.h>

#include "gen/scp_gen.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "solver/bnb.hpp"
#include "util/rng.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::solver::BnbBound;
using ucp::solver::BnbOptions;
using ucp::solver::solve_exact;

Cost brute_optimum(const CoverMatrix& m) {
    const Index C = m.num_cols();
    Cost best = 0;
    for (Index j = 0; j < C; ++j) best += m.cost(j);
    for (std::uint32_t mask = 0; mask < (1u << C); ++mask) {
        std::vector<Index> sol;
        for (Index j = 0; j < C; ++j)
            if ((mask >> j) & 1) sol.push_back(j);
        if (m.is_feasible(sol)) best = std::min(best, m.solution_cost(sol));
    }
    return best;
}

class BnbBoundTest : public ::testing::TestWithParam<BnbBound> {};

TEST_P(BnbBoundTest, MatchesBruteForceOnRandomInstances) {
    ucp::Rng seeds(51);
    BnbOptions opt;
    opt.bound = GetParam();
    for (int trial = 0; trial < 25; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 10;
        g.cols = 12;
        g.density = 0.2 + 0.02 * (trial % 5);
        g.min_cost = 1;
        g.max_cost = 1 + trial % 4;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto r = solve_exact(m, opt);
        ASSERT_TRUE(r.optimal);
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_EQ(m.solution_cost(r.solution), r.cost);
        EXPECT_EQ(r.cost, brute_optimum(m)) << "seed " << g.seed;
        EXPECT_EQ(r.lower_bound, r.cost);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBounds, BnbBoundTest,
                         ::testing::Values(BnbBound::kMis,
                                           BnbBound::kDualAscent,
                                           BnbBound::kLagrangian,
                                           BnbBound::kLp,
                                           BnbBound::kIncrementalMis));

TEST(Bnb, IncrementalMisBoundIsValidAndDominatesMis) {
    ucp::Rng seeds(55);
    int strictly_better = 0;
    for (int trial = 0; trial < 25; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 14;
        g.cols = 16;
        g.density = 0.2;
        g.min_cost = 1;
        g.max_cost = 1 + trial % 3;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto mis = ucp::lagr::mis_lower_bound(m);
        const Cost inc = ucp::solver::incremental_mis_bound(m, 6);
        const Cost opt = solve_exact(m).cost;
        EXPECT_GE(inc, mis.bound) << "seed " << g.seed;
        EXPECT_LE(inc, opt) << "seed " << g.seed;
        if (inc > mis.bound) ++strictly_better;
    }
    // The strengthening must actually help on a good share of instances.
    EXPECT_GT(strictly_better, 0);
}

TEST(Bnb, CyclicMatricesHaveKnownOptima) {
    // C(n,k) optimum is ⌈n/k⌉.
    for (const auto& [n, k] :
         std::vector<std::pair<Index, Index>>{{6, 2}, {7, 3}, {10, 4}, {11, 3}}) {
        const auto r = solve_exact(ucp::gen::cyclic_matrix(n, k));
        ASSERT_TRUE(r.optimal);
        EXPECT_EQ(r.cost, static_cast<Cost>((n + k - 1) / k))
            << "C(" << n << "," << k << ")";
    }
}

TEST(Bnb, HandExamples) {
    EXPECT_EQ(solve_exact(ucp::gen::mis_vs_dual_example()).cost, 2);
    EXPECT_EQ(solve_exact(ucp::gen::dual_vs_lp_example()).cost, 3);
}

TEST(Bnb, LimitBoundOffStillOptimal) {
    ucp::Rng seeds(53);
    BnbOptions with, without;
    without.use_limit_bound = false;
    for (int trial = 0; trial < 10; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 12;
        g.cols = 14;
        g.density = 0.2;
        g.min_cost = 1;
        g.max_cost = 5;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        EXPECT_EQ(solve_exact(m, with).cost, solve_exact(m, without).cost);
    }
}

TEST(Bnb, NodeBudgetTruncationIsReported) {
    BnbOptions opt;
    opt.max_nodes = 1;
    const CoverMatrix m = ucp::gen::cyclic_matrix(15, 4);
    const auto r = solve_exact(m, opt);
    EXPECT_TRUE(m.is_feasible(r.solution));  // greedy fallback is feasible
    if (!r.optimal) {
        EXPECT_LE(r.lower_bound, r.cost);
    }
}

TEST(Bnb, SolvedByReductionsAlone) {
    // Essential-dominated instance: no branching needed.
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0}, {1}, {0, 1, 2}}, {1, 1, 1});
    const auto r = solve_exact(m);
    ASSERT_TRUE(r.optimal);
    EXPECT_EQ(r.cost, 2);
    EXPECT_LE(r.nodes, 2u);
}

TEST(Bnb, SequentialSearchTreeIsPinned) {
    // The 1-worker search is the deterministic reference: on 40 fixed
    // scp_exact-shaped instances (100×45, 3 columns per row) the node total
    // and a hash of every cover equal constants measured at commit b2a1140,
    // before children re-reduced incrementally. A change that alters the
    // tree on purpose updates them and says why.
    ucp::Rng seeds(2026);
    std::size_t nodes = 0;
    std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a
    const auto mix = [&](std::uint64_t x) {
        hash = (hash ^ x) * 1099511628211ULL;
    };
    for (int trial = 0; trial < 40; ++trial) {
        ucp::gen::UnicostScpOptions g;
        g.rows = 100;
        g.cols = 45;
        g.cols_per_row = 3;
        g.seed = seeds();
        const auto r = solve_exact(ucp::gen::unicost_scp(g));
        ASSERT_TRUE(r.optimal);
        nodes += r.nodes;
        mix(static_cast<std::uint64_t>(r.cost));
        for (const Index j : r.solution) mix(j);
    }
    EXPECT_EQ(nodes, 10'344u);
    EXPECT_EQ(hash, 8438953152130876013ULL);
}

TEST(Bnb, NonUniformCostsPickCheapCover) {
    // Two covers: {0} cost 10, or {1,2} cost 2+3.
    const CoverMatrix m = CoverMatrix::from_rows(
        3, {{0, 1}, {0, 2}}, {10, 2, 3});
    const auto r = solve_exact(m);
    EXPECT_EQ(r.cost, 5);
}

}  // namespace
