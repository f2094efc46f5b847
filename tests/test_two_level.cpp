// End-to-end two-level minimisation: equivalence always, optimality when the
// exact solver is used, cost ordering between solvers, paper-style metrics.
#include <gtest/gtest.h>

#include "espresso/espresso.hpp"
#include "gen/pla_gen.hpp"
#include "solver/two_level.hpp"
#include "util/rng.hpp"

namespace {

using ucp::gen::RandomPlaOptions;
using ucp::pla::Pla;
using ucp::solver::CoverSolver;
using ucp::solver::minimize_two_level;
using ucp::solver::TwoLevelOptions;

Pla random_pla(std::uint64_t seed, std::uint32_t n = 6, std::uint32_t m = 2,
               std::uint32_t cubes = 14) {
    RandomPlaOptions opt;
    opt.num_inputs = n;
    opt.num_outputs = m;
    opt.num_cubes = cubes;
    opt.literal_prob = 0.55;
    opt.dc_fraction = 0.2;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

TEST(TwoLevel, ScgResultIsEquivalentAndBounded) {
    ucp::Rng seeds(91);
    for (int trial = 0; trial < 10; ++trial) {
        const Pla p = random_pla(seeds());
        const auto r = minimize_two_level(p);
        EXPECT_TRUE(r.verified) << p.name;
        EXPECT_EQ(r.cost, static_cast<ucp::cov::Cost>(r.cover.size()));
        EXPECT_LE(r.lower_bound, r.cost);
        EXPECT_GT(r.num_primes, 0u);
    }
}

TEST(TwoLevel, ExactNeverWorseThanHeuristics) {
    ucp::Rng seeds(93);
    for (int trial = 0; trial < 8; ++trial) {
        const Pla p = random_pla(seeds(), 5, 2, 10);
        TwoLevelOptions scg, exact, greedy;
        exact.cover_solver = CoverSolver::kExact;
        greedy.cover_solver = CoverSolver::kGreedy;
        const auto re = minimize_two_level(p, exact);
        const auto rs = minimize_two_level(p, scg);
        const auto rg = minimize_two_level(p, greedy);
        EXPECT_TRUE(re.verified && rs.verified && rg.verified);
        EXPECT_TRUE(re.proved_optimal);
        EXPECT_LE(re.cost, rs.cost);
        EXPECT_LE(rs.cost, rg.cost + 2);  // SCG ~ greedy or better
    }
}

TEST(TwoLevel, ScgMatchesExactOnSmallFunctions) {
    ucp::Rng seeds(95);
    int hits = 0, total = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const Pla p = random_pla(seeds(), 5, 1, 10);
        TwoLevelOptions exact;
        exact.cover_solver = CoverSolver::kExact;
        const auto re = minimize_two_level(p, exact);
        const auto rs = minimize_two_level(p);
        ++total;
        if (rs.cost == re.cost) ++hits;
        EXPECT_LE(rs.cost, re.cost + 1);
    }
    EXPECT_GE(hits * 10, total * 8);  // paper: nearly always optimal
}

TEST(TwoLevel, MinimumCoverBeatsOrMatchesEspresso) {
    // The exact UCP solution over all primes is the true minimum cover; the
    // Espresso heuristic can only match or exceed it.
    ucp::Rng seeds(97);
    for (int trial = 0; trial < 8; ++trial) {
        const Pla p = random_pla(seeds(), 5, 2, 12);
        TwoLevelOptions exact;
        exact.cover_solver = CoverSolver::kExact;
        const auto re = minimize_two_level(p, exact);
        ASSERT_TRUE(re.proved_optimal);
        const auto esp = ucp::esp::espresso(p);
        EXPECT_LE(re.cost, static_cast<ucp::cov::Cost>(esp.cover.size()));
    }
}

TEST(TwoLevel, KnownFunctions) {
    // Majority-of-5: minimum SOP has C(5,3) = 10 products.
    const auto maj = minimize_two_level(ucp::gen::majority_pla(5),
                                        [] {
                                            TwoLevelOptions o;
                                            o.cover_solver = CoverSolver::kExact;
                                            return o;
                                        }());
    EXPECT_TRUE(maj.verified);
    EXPECT_EQ(maj.cost, 10);

    // Parity-of-5: no merging possible, 16 minterms.
    const auto par = minimize_two_level(ucp::gen::parity_pla(5));
    EXPECT_TRUE(par.verified);
    EXPECT_EQ(par.cost, 16);
    EXPECT_TRUE(par.proved_optimal);

    // 4-way mux: classical minimum is 4 products.
    TwoLevelOptions exact;
    exact.cover_solver = CoverSolver::kExact;
    const auto mux = minimize_two_level(ucp::gen::mux_pla(2), exact);
    EXPECT_TRUE(mux.verified);
    EXPECT_EQ(mux.cost, 4);
}

TEST(TwoLevel, MultiOutputSharingIsExploited) {
    // Two identical outputs: one product set serves both, so the minimised
    // cover should not double.
    const ucp::pla::CubeSpace s{3, 2};
    Pla p;
    p.on = ucp::pla::Cover::from_strings(
        s, {{"11-", "11"}, {"0-1", "11"}});
    p.dc = ucp::pla::Cover(s);
    p.off = ucp::pla::Cover(s);
    TwoLevelOptions exact;
    exact.cover_solver = CoverSolver::kExact;
    const auto r = minimize_two_level(p, exact);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.cost, 2);
    for (const auto& c : r.cover) {
        EXPECT_TRUE(c.out(s, 0));
        EXPECT_TRUE(c.out(s, 1));
    }
}

TEST(TwoLevel, TimingsPopulated) {
    const auto r = minimize_two_level(random_pla(3));
    EXPECT_GE(r.cyclic_core_seconds, 0.0);
    EXPECT_GE(r.total_seconds, r.cyclic_core_seconds);
}

}  // namespace
