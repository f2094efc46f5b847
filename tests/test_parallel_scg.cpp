// Parallel multi-start SCG: bit-identical determinism across thread counts,
// the "never worse than single start" guarantee (start 0 replays the classic
// solver's seed verbatim), reduction tie-breaking, and the stats counters.
#include <gtest/gtest.h>

#include "gen/scp_gen.hpp"
#include "solver/scg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::cov::CoverMatrix;
using ucp::solver::ScgOptions;
using ucp::solver::ScgResult;
using ucp::solver::solve_scg;

CoverMatrix instance(std::uint64_t seed, ucp::cov::Index rows = 40,
                     ucp::cov::Index cols = 60, double density = 0.08) {
    ucp::gen::RandomScpOptions g;
    g.rows = rows;
    g.cols = cols;
    g.density = density;
    g.min_cost = 1;
    g.max_cost = 4;
    g.seed = seed;
    return ucp::gen::random_scp(g);
}

TEST(ParallelScg, IdenticalResultAcrossThreadCounts) {
    ucp::Rng seeds(7101);
    for (int trial = 0; trial < 4; ++trial) {
        const CoverMatrix m = instance(seeds());
        ScgOptions opt;
        opt.seed = 0xfeedULL + trial;
        opt.num_starts = 8;

        std::vector<ScgResult> results;
        for (const int threads : {1, 2, 4, 8}) {
            opt.num_threads = threads;
            results.push_back(solve_scg(m, opt));
        }
        for (std::size_t i = 1; i < results.size(); ++i) {
            EXPECT_EQ(results[0].solution, results[i].solution)
                << "thread count changed the best cover (trial " << trial
                << ")";
            EXPECT_EQ(results[0].cost, results[i].cost);
            EXPECT_EQ(results[0].lower_bound, results[i].lower_bound);
            EXPECT_EQ(results[0].start_of_best, results[i].start_of_best);
            EXPECT_EQ(results[0].subgradient_calls,
                      results[i].subgradient_calls);
        }
        EXPECT_EQ(results[0].starts_executed, 8);
        EXPECT_GE(results[0].start_of_best, 0);
        EXPECT_LT(results[0].start_of_best, 8);
        EXPECT_TRUE(m.is_feasible(results[0].solution));
        EXPECT_EQ(m.solution_cost(results[0].solution), results[0].cost);
        EXPECT_LE(results[0].lower_bound, results[0].cost);
    }
}

TEST(ParallelScg, MultiStartNeverWorseThanSingleStart) {
    // Start 0 of a multi-start run uses opt.seed verbatim, so its descent is
    // exactly the single-start run; additional starts can only improve.
    ucp::Rng seeds(7103);
    for (int trial = 0; trial < 6; ++trial) {
        const CoverMatrix m = instance(seeds(), 30, 45, 0.1);
        ScgOptions single;
        single.seed = 0xabc0ULL + trial;
        const auto one = solve_scg(m, single);

        ScgOptions multi = single;
        multi.num_starts = 6;
        multi.num_threads = 2;
        const auto many = solve_scg(m, multi);

        EXPECT_LE(many.cost, one.cost) << "trial " << trial;
        EXPECT_GE(many.lower_bound, one.lower_bound);
        if (many.cost == one.cost && many.start_of_best == 0) {
            EXPECT_EQ(many.solution, one.solution);
        }
    }
}

TEST(ParallelScg, SingleStartPathUnchangedByNewFields) {
    const CoverMatrix m = instance(991);
    ScgOptions opt;
    opt.seed = 0x5eed;
    const auto classic = solve_scg(m, opt);
    opt.num_starts = 1;
    opt.num_threads = 8;  // must be inert with one start
    const auto same = solve_scg(m, opt);
    EXPECT_EQ(classic.solution, same.solution);
    EXPECT_EQ(classic.cost, same.cost);
    EXPECT_EQ(same.starts_executed, 1);
    EXPECT_EQ(same.start_of_best, 0);
}

TEST(ParallelScg, AutoThreadsAndTrivialInstances) {
    // num_threads = 0 (auto) must work, including on instances the
    // reductions solve outright.
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0}, {1}, {0, 1, 2}}, {1, 1, 1});
    ScgOptions opt;
    opt.num_starts = 4;
    opt.num_threads = 0;
    const auto r = solve_scg(m, opt);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_EQ(r.cost, 2);
    EXPECT_EQ(r.starts_executed, 4);
}

TEST(ParallelScg, StatsCountersPopulated) {
    ucp::stats::reset_all();
    const CoverMatrix m = instance(2024);
    ScgOptions opt;
    opt.num_starts = 3;
    opt.num_threads = 2;
    const auto r = solve_scg(m, opt);
    EXPECT_TRUE(m.is_feasible(r.solution));

    const auto snap = ucp::stats::snapshot();
    const auto get = [&](const char* k) {
        const auto it = snap.find(k);
        return it == snap.end() ? 0.0 : it->second;
    };
    EXPECT_GE(get("scg.calls"), 1.0);
    EXPECT_GE(get("scg.starts"), 3.0);
    EXPECT_GE(get("subgradient.calls"), 1.0);
    EXPECT_GE(get("subgradient.iterations"), get("subgradient.calls"));
    EXPECT_GT(get("scg.seconds"), 0.0);
    EXPECT_EQ(get("scg.starts"),
              static_cast<double>(r.starts_executed));
}

}  // namespace
