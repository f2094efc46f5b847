// Property suite for §3.4 / Proposition 1: on random covering problems the
// bound chain LB_MIS ≤ LB_DA ≤ z*_P and LB_Lagr ≤ z*_P ≤ z*_UCP holds, dual
// ascent dominates MIS, uniform costs collapse DA to MIS-strength, and every
// bound is sound against the exact optimum. Parameterised over densities and
// cost ranges (paper: uniform costs are the common VLSI case). On the
// unicost-suite rows B&B proves, the optimum brackets every solver's cover
// and bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/subgradient.hpp"
#include "lp/simplex.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "solver/portfolio.hpp"
#include "solver/scg.hpp"
#include "util/rng.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;

struct Config {
    double density;
    Cost max_cost;
    std::uint64_t seed_base;
};

class BoundChain : public ::testing::TestWithParam<Config> {};

TEST_P(BoundChain, Proposition1Ordering) {
    const Config cfg = GetParam();
    ucp::Rng seeds(cfg.seed_base);
    for (int trial = 0; trial < 12; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 12;
        g.cols = 16;
        g.density = cfg.density;
        g.min_cost = 1;
        g.max_cost = cfg.max_cost;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);

        const auto mis = ucp::lagr::mis_lower_bound(m);
        const auto da = ucp::lagr::dual_ascent(m);
        const auto lp = ucp::lp::solve_covering_lp(m);
        ASSERT_EQ(lp.status, ucp::lp::LpStatus::kOptimal);
        const auto sub = ucp::lagr::subgradient_ascent(m);
        const auto exact = ucp::solver::solve_exact(m);
        ASSERT_TRUE(exact.optimal);

        // Proposition 1's DA ≥ MIS holds for dual ascent *started from* the
        // independent-set dual solution (phase 1 keeps it feasible, phase 2
        // only increases it).
        std::vector<double> mis_warm(m.num_rows(), 0.0);
        for (const auto i : mis.rows) {
            Cost cheapest = m.cost(m.row(i)[0]);
            for (const auto j : m.row(i)) cheapest = std::min(cheapest, m.cost(j));
            mis_warm[i] = static_cast<double>(cheapest);
        }
        const auto da_mis = ucp::lagr::dual_ascent(m, mis_warm);
        EXPECT_GE(da_mis.value + 1e-9, static_cast<double>(mis.bound))
            << "seed " << g.seed;
        EXPECT_LE(da_mis.value, lp.objective + 1e-6);
        // Weak duality.
        EXPECT_LE(da.value, lp.objective + 1e-6);
        EXPECT_LE(static_cast<double>(mis.bound), lp.objective + 1e-6);
        // Lagrangian bound below LP, LP below integer optimum.
        EXPECT_LE(sub.lb_fractional, lp.objective + 1e-6);
        EXPECT_LE(lp.objective, static_cast<double>(exact.cost) + 1e-6);
        // Rounded bounds are valid for the IP.
        EXPECT_LE(sub.lb, exact.cost);
        EXPECT_LE(static_cast<Cost>(std::ceil(da.value - 1e-6)), exact.cost);
        EXPECT_LE(mis.bound, exact.cost);
        // Lagrangian (properly initialised from dual ascent) dominates DA.
        EXPECT_GE(sub.lb_fractional + 1e-6, da.value) << "seed " << g.seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DensityAndCostSweep, BoundChain,
    ::testing::Values(Config{0.12, 1, 100}, Config{0.20, 1, 200},
                      Config{0.30, 1, 300}, Config{0.12, 4, 400},
                      Config{0.20, 4, 500}, Config{0.30, 6, 600},
                      Config{0.45, 1, 700}, Config{0.45, 8, 800}));

TEST(BoundChain, UniformCostDualAscentEqualsIndependentSetStrength) {
    // Proposition 1: with uniform costs, integer dual solutions are exactly
    // independent sets. Our dual ascent produces an integral solution in the
    // uniform case, so ⌈DA⌉ is achievable by some independent set — verify
    // DA never exceeds the best MIS bound by more than the fractional slack.
    ucp::Rng seeds(900);
    for (int trial = 0; trial < 15; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 10;
        g.cols = 14;
        g.density = 0.25;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        const auto da = ucp::lagr::dual_ascent(m);
        // Integrality of the DA solution under unit costs.
        for (const double v : da.m)
            EXPECT_NEAR(v, std::round(v), 1e-9) << "seed " << g.seed;
        // The positive variables form an independent set.
        std::vector<bool> used(m.num_cols(), false);
        for (ucp::cov::Index i = 0; i < m.num_rows(); ++i) {
            if (da.m[i] < 0.5) continue;
            for (const auto j : m.row(i)) {
                EXPECT_FALSE(used[j]) << "seed " << g.seed;
                used[j] = true;
            }
        }
    }
}

TEST(BoundChain, StrictSeparationExamples) {
    // The §3.4 example structure: MIS < DA on one instance, DA < ⌈LP⌉ on the
    // other (Figure 1's qualitative content).
    const CoverMatrix glue = ucp::gen::mis_vs_dual_example();
    const auto mis1 = ucp::lagr::mis_lower_bound(glue);
    const auto da1 = ucp::lagr::dual_ascent(glue);
    EXPECT_LT(static_cast<double>(mis1.bound), da1.value - 0.5);

    const CoverMatrix tri = ucp::gen::dual_vs_lp_example();
    const auto da2 = ucp::lagr::dual_ascent(tri);
    const auto lp2 = ucp::lp::solve_covering_lp(tri);
    EXPECT_LT(da2.value, lp2.objective - 0.25);
    EXPECT_EQ(ucp::lp::lp_lower_bound_rounded(tri),
              ucp::solver::solve_exact(tri).cost);
}

TEST(BoundChain, CyclicFamilyLpEqualsNOverK) {
    for (ucp::cov::Index n = 5; n <= 13; n += 2) {
        for (ucp::cov::Index k = 2; k <= 4; ++k) {
            if (k >= n) continue;
            const CoverMatrix m = ucp::gen::cyclic_matrix(n, k);
            const auto lp = ucp::lp::solve_covering_lp(m);
            ASSERT_EQ(lp.status, ucp::lp::LpStatus::kOptimal);
            EXPECT_NEAR(lp.objective, static_cast<double>(n) / k, 1e-6);
            const auto exact = ucp::solver::solve_exact(m);
            EXPECT_EQ(exact.cost, static_cast<Cost>((n + k - 1) / k));
        }
    }
}

// Cross-solver brackets on the unicost-suite instances B&B proves within
// milliseconds: every heuristic's cover costs at least the optimum, and the
// optimum is at least every lower bound the solvers report.
TEST(CrossSolverBounds, ProvedOptimumBracketsEverySolver) {
    const std::map<std::string, Cost> optimum = {{"u120x60k3", 23},
                                                 {"sts15", 9},
                                                 {"sts27", 17},
                                                 {"cyc60.7", 9},
                                                 {"cyc90.8", 12}};
    std::size_t checked = 0;
    for (const auto& entry : ucp::gen::unicost_suite()) {
        const auto want = optimum.find(entry.name);
        if (want == optimum.end()) continue;
        ++checked;
        SCOPED_TRACE(entry.name);
        const CoverMatrix& m = entry.matrix;

        ucp::solver::BnbOptions bopt;
        bopt.num_threads = 4;
        const auto exact = ucp::solver::solve_exact(m, bopt);
        ASSERT_TRUE(exact.optimal);
        ASSERT_EQ(exact.cost, want->second);
        const Cost opt = exact.cost;

        const auto greedy = ucp::solver::chvatal_greedy(m);
        const auto scg = ucp::solver::solve_scg(m);
        const auto portfolio = ucp::solver::solve_portfolio(m);
        EXPECT_TRUE(m.is_feasible(greedy.solution));
        EXPECT_TRUE(m.is_feasible(scg.solution));
        EXPECT_TRUE(m.is_feasible(portfolio.solution));
        EXPECT_GE(greedy.cost, opt);
        EXPECT_GE(scg.cost, opt);
        EXPECT_GE(portfolio.cost, opt);

        EXPECT_LE(scg.lower_bound, opt);
        EXPECT_LE(portfolio.lower_bound, opt);
        EXPECT_LE(ucp::lagr::dual_ascent(m).value,
                  static_cast<double>(opt) + 1e-9);
        EXPECT_LE(ucp::lagr::mis_lower_bound(m).bound, opt);
    }
    EXPECT_EQ(checked, optimum.size());
}

}  // namespace
