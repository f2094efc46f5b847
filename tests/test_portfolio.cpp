// Portfolio solver: never worse than SCG alone at the same options,
// bit-identical results across thread counts, both cross-seeding hooks
// (warm_solution into SCG and BnB), and the anytime contract under a
// governor.
#include <gtest/gtest.h>

#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "solver/portfolio.hpp"
#include "util/rng.hpp"

namespace {

using ucp::Budget;
using ucp::BudgetOptions;
using ucp::Status;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::solver::BnbOptions;
using ucp::solver::PortfolioOptions;
using ucp::solver::PortfolioResult;
using ucp::solver::ScgOptions;
using ucp::solver::solve_exact;
using ucp::solver::solve_portfolio;
using ucp::solver::solve_scg;

CoverMatrix unicost(std::uint64_t seed, Index rows = 100, Index cols = 60,
                    Index k = 3) {
    ucp::gen::UnicostScpOptions g;
    g.rows = rows;
    g.cols = cols;
    g.cols_per_row = k;
    g.seed = seed;
    return ucp::gen::unicost_scp(g);
}

PortfolioOptions small_opts() {
    PortfolioOptions opt;
    opt.scg.num_iter = 2;
    opt.rwls.max_steps = 3000;
    opt.rwls_tasks = 3;
    return opt;
}

TEST(Portfolio, NeverWorseThanScgAlone) {
    ucp::Rng seeds(808);
    for (int trial = 0; trial < 5; ++trial) {
        const CoverMatrix m = unicost(seeds());
        PortfolioOptions opt = small_opts();
        const auto scg = solve_scg(m, opt.scg);
        const PortfolioResult r = solve_portfolio(m, opt);
        ASSERT_TRUE(m.is_feasible(r.solution));
        EXPECT_LE(r.cost, scg.cost) << "portfolio lost to its own SCG leg";
        EXPECT_EQ(r.scg_cost, scg.cost);
        EXPECT_GE(r.lower_bound, scg.lower_bound);
    }
}

TEST(Portfolio, DeterministicAcrossThreadCounts) {
    const CoverMatrix m = unicost(21);
    PortfolioOptions opt = small_opts();
    opt.scg.num_starts = 4;

    PortfolioResult ref;
    bool have_ref = false;
    for (const int threads : {1, 2, 4, 8}) {
        opt.num_threads = threads;
        opt.scg.num_threads = threads;
        const PortfolioResult r = solve_portfolio(m, opt);
        if (!have_ref) {
            ref = r;
            have_ref = true;
            continue;
        }
        EXPECT_EQ(r.cost, ref.cost) << "threads=" << threads;
        EXPECT_EQ(r.solution, ref.solution) << "threads=" << threads;
        EXPECT_EQ(r.lower_bound, ref.lower_bound);
        EXPECT_EQ(r.winner_phase, ref.winner_phase);
        EXPECT_EQ(r.rwls_task_of_best, ref.rwls_task_of_best);
    }
}

TEST(Portfolio, ExactFinishProvesOptimality) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(24, 5);
    PortfolioOptions opt = small_opts();
    opt.finish_exact = true;
    const PortfolioResult r = solve_portfolio(m, opt);
    ASSERT_TRUE(m.is_feasible(r.solution));
    EXPECT_TRUE(r.proved_optimal);
    const auto exact = solve_exact(m);
    ASSERT_TRUE(exact.optimal);
    EXPECT_EQ(r.cost, exact.cost);
}

TEST(Portfolio, AnytimeUnderDeadline) {
    const CoverMatrix m = unicost(23, 200, 100, 4);
    BudgetOptions bo;
    bo.deadline_seconds = 1e-9;  // trips on the first poll
    Budget governor(bo);
    PortfolioOptions opt = small_opts();
    opt.governor = &governor;
    const PortfolioResult r = solve_portfolio(m, opt);
    EXPECT_EQ(r.status, Status::kDeadline);
    ASSERT_TRUE(m.is_feasible(r.solution));
    EXPECT_GE(r.lower_bound, 0);
}

TEST(Portfolio, AnytimeUnderIterationCap) {
    const CoverMatrix m = unicost(25, 150, 80, 3);
    for (const std::uint64_t cap : {1, 20, 500}) {
        BudgetOptions bo;
        bo.iteration_cap = cap;
        Budget governor(bo);
        PortfolioOptions opt = small_opts();
        opt.governor = &governor;
        const PortfolioResult r = solve_portfolio(m, opt);
        ASSERT_TRUE(m.is_feasible(r.solution)) << "cap=" << cap;
        EXPECT_NE(r.status, Status::kOk) << "cap=" << cap;
    }
}

TEST(ScgWarmSolution, AdoptedWhenBetterIgnoredWhenInfeasible) {
    const CoverMatrix m = unicost(27);
    ScgOptions base;
    base.num_iter = 1;
    base.subgradient.max_iterations = 5;  // weak: leaves a coarse incumbent
    const auto weak = solve_scg(m, base);

    // Warm-seed with the exact optimum: the result must adopt it.
    const auto exact = solve_exact(m);
    ASSERT_TRUE(exact.optimal);
    ScgOptions warm = base;
    warm.warm_solution = exact.solution;
    const auto seeded = solve_scg(m, warm);
    EXPECT_EQ(seeded.cost, exact.cost);
    EXPECT_LE(seeded.cost, weak.cost);

    // An infeasible warm vector is ignored, not adopted.
    ScgOptions bad = base;
    bad.warm_solution = {0};
    const auto ignored = solve_scg(m, bad);
    EXPECT_TRUE(m.is_feasible(ignored.solution));
    EXPECT_EQ(ignored.cost, weak.cost);
}

TEST(BnbWarmSolution, SeedsIncumbentWithoutBreakingExactness) {
    ucp::Rng seeds(909);
    for (int trial = 0; trial < 4; ++trial) {
        const CoverMatrix m = unicost(seeds(), 50, 30, 3);
        const auto plain = solve_exact(m);
        ASSERT_TRUE(plain.optimal);
        BnbOptions opt;
        opt.warm_solution = plain.solution;  // optimal warm incumbent
        const auto warm = solve_exact(m, opt);
        ASSERT_TRUE(warm.optimal);
        EXPECT_EQ(warm.cost, plain.cost);
        // Infeasible warm vectors are ignored.
        BnbOptions bad;
        bad.warm_solution = {0};
        const auto ignored = solve_exact(m, bad);
        ASSERT_TRUE(ignored.optimal);
        EXPECT_EQ(ignored.cost, plain.cost);
    }
}

TEST(Portfolio, UnicostSuiteInstancesAreWellFormed) {
    const auto suite = ucp::gen::unicost_suite();
    ASSERT_GE(suite.size(), 9u);
    for (const auto& entry : suite) {
        EXPECT_FALSE(entry.name.empty());
        entry.matrix.validate();
        EXPECT_GT(entry.matrix.num_rows(), 0u);
        for (Index j = 0; j < entry.matrix.num_cols(); ++j)
            EXPECT_EQ(entry.matrix.cost(j), 1) << entry.name;
    }
    // Steiner triple row counts: n(n−1)/6.
    for (const auto& entry : suite) {
        if (entry.name == "sts15") {
            EXPECT_EQ(entry.matrix.num_rows(), 35u);
        }
    }
}

}  // namespace
