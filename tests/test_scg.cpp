// The SCG solver (the paper's algorithm): feasibility, bound validity,
// optimality proofs, near-optimality vs the exact solver, option toggles,
// restart behaviour, determinism.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/scp_gen.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "solver/scg.hpp"
#include "util/rng.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::solver::ScgOptions;
using ucp::solver::solve_scg;

TEST(Scg, FeasibleAndBoundedOnRandomInstances) {
    ucp::Rng seeds(61);
    for (int trial = 0; trial < 20; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 30;
        g.cols = 45;
        g.density = 0.08 + 0.02 * (trial % 4);
        g.min_cost = 1;
        g.max_cost = 1 + trial % 3;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto r = solve_scg(m);
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_EQ(m.solution_cost(r.solution), r.cost);
        EXPECT_LE(r.lower_bound, r.cost) << "seed " << g.seed;
        if (r.proved_optimal) {
            EXPECT_EQ(r.lower_bound, r.cost);
        }
    }
}

TEST(Scg, NearOptimalVsExact) {
    ucp::Rng seeds(63);
    int optimal_hits = 0, total = 0;
    for (int trial = 0; trial < 15; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 14;
        g.cols = 18;
        g.density = 0.18;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto exact = ucp::solver::solve_exact(m);
        ASSERT_TRUE(exact.optimal);
        const auto r = solve_scg(m);
        ++total;
        EXPECT_GE(r.cost, exact.cost);        // heuristic can't beat optimum
        EXPECT_LE(r.lower_bound, exact.cost); // LB is valid
        EXPECT_LE(r.cost, exact.cost + 1);    // near-optimality (paper's claim)
        if (r.cost == exact.cost) ++optimal_hits;
    }
    // The paper: "nearly always hits the optimum".
    EXPECT_GE(optimal_hits * 10, total * 8);
}

TEST(Scg, SolvesReductionSolvableInstanceExactly) {
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0}, {1}, {0, 1, 2}}, {1, 1, 1});
    const auto r = solve_scg(m);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_EQ(r.cost, 2);
}

TEST(Scg, HandExamples) {
    const auto glue = solve_scg(ucp::gen::mis_vs_dual_example());
    EXPECT_EQ(glue.cost, 2);
    EXPECT_TRUE(glue.proved_optimal);

    const auto tri = solve_scg(ucp::gen::dual_vs_lp_example());
    EXPECT_EQ(tri.cost, 3);
    // LB reaches ⌈2.5⌉ = 3 when the subgradient converges far enough.
    EXPECT_GE(tri.lower_bound, 2);
}

TEST(Scg, CyclicCores) {
    for (const auto& [n, k] :
         std::vector<std::pair<Index, Index>>{{9, 3}, {12, 5}, {14, 4}}) {
        const auto r = solve_scg(ucp::gen::cyclic_matrix(n, k));
        EXPECT_EQ(r.cost, static_cast<Cost>((n + k - 1) / k))
            << "C(" << n << "," << k << ")";
    }
}

TEST(Scg, DeterministicForFixedSeed) {
    ucp::gen::RandomScpOptions g;
    g.rows = 25;
    g.cols = 40;
    g.density = 0.1;
    g.seed = 7;
    const CoverMatrix m = ucp::gen::random_scp(g);
    ScgOptions opt;
    opt.seed = 99;
    const auto a = solve_scg(m, opt);
    const auto b = solve_scg(m, opt);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.solution, b.solution);
    EXPECT_EQ(a.lower_bound, b.lower_bound);
}

TEST(Scg, PenaltyTogglesPreserveCorrectness) {
    ucp::Rng seeds(67);
    for (int trial = 0; trial < 8; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 16;
        g.cols = 20;
        g.density = 0.15;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const Cost exact = ucp::solver::solve_exact(m).cost;
        for (const bool lagr_pen : {false, true}) {
            for (const bool dual_pen : {false, true}) {
                ScgOptions opt;
                opt.use_lagrangian_penalties = lagr_pen;
                opt.use_dual_penalties = dual_pen;
                const auto r = solve_scg(m, opt);
                EXPECT_TRUE(m.is_feasible(r.solution));
                EXPECT_GE(r.cost, exact);
                EXPECT_LE(r.lower_bound, exact);
            }
        }
    }
}

TEST(Scg, MoreRestartsNeverWorse) {
    ucp::Rng seeds(69);
    for (int trial = 0; trial < 6; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 24;
        g.cols = 36;
        g.density = 0.12;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        ScgOptions one;
        one.num_iter = 1;
        ScgOptions many;
        many.num_iter = 6;
        // Same seed: run 1 is deterministic and shared, so more restarts can
        // only improve the incumbent.
        EXPECT_LE(solve_scg(m, many).cost, solve_scg(m, one).cost);
    }
}

TEST(Scg, ProgressLogIsWritten) {
    std::ostringstream log;
    ScgOptions opt;
    opt.log = &log;
    const auto r = solve_scg(ucp::gen::cyclic_matrix(12, 5), opt);
    EXPECT_TRUE(r.proved_optimal);
    const std::string text = log.str();
    EXPECT_NE(text.find("[scg] core 12x12"), std::string::npos);
    EXPECT_NE(text.find("incumbent"), std::string::npos);
}

TEST(Scg, RunOfBestIsTracked) {
    const auto r = solve_scg(ucp::gen::cyclic_matrix(10, 3));
    EXPECT_GE(r.run_of_best, 0);
    EXPECT_LE(r.run_of_best, r.runs_executed);
}

}  // namespace
