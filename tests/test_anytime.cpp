// The anytime solver harness: deadline and cancellation trips return a
// feasible best-so-far result with a valid bound, fault injection trips
// deterministically regardless of thread count, and a ZDD node-budget trip
// degrades to the explicit path with a bit-identical covering matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "solver/bnb.hpp"
#include "solver/scg.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

// Hermetic: every injection below uses an explicit BudgetOptions::fault spec;
// an ambient UCP_FAULT (e.g. from a CI sweep) would poison the ungoverned
// reference runs these tests compare against.
const bool g_env_cleared = [] {
    unsetenv("UCP_FAULT");
    return true;
}();

using ucp::Budget;
using ucp::BudgetOptions;
using ucp::CancelToken;
using ucp::Status;
using ucp::cov::CoverMatrix;
using ucp::pla::Pla;
using ucp::solver::minimize_two_level;
using ucp::solver::ScgOptions;
using ucp::solver::ScgResult;
using ucp::solver::solve_scg;
using ucp::solver::TwoLevelOptions;

CoverMatrix scp_instance(std::uint64_t seed) {
    ucp::gen::RandomScpOptions g;
    g.rows = 40;
    g.cols = 60;
    g.density = 0.08;
    g.min_cost = 1;
    g.max_cost = 4;
    g.seed = seed;
    return ucp::gen::random_scp(g);
}

Pla random_pla(std::uint64_t seed, std::uint32_t n = 6, std::uint32_t m = 2,
               std::uint32_t cubes = 14) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = n;
    opt.num_outputs = m;
    opt.num_cubes = cubes;
    opt.literal_prob = 0.55;
    opt.dc_fraction = 0.2;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

bool same_matrix(const CoverMatrix& a, const CoverMatrix& b) {
    if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols() ||
        a.num_entries() != b.num_entries())
        return false;
    for (ucp::cov::Index i = 0; i < a.num_rows(); ++i)
        if (a.row(i) != b.row(i)) return false;
    for (ucp::cov::Index j = 0; j < a.num_cols(); ++j)
        if (a.cost(j) != b.cost(j)) return false;
    return true;
}

// ---- deadline trips ---------------------------------------------------------

TEST(Anytime, ScgDeadlineFaultReturnsFeasibleBestSoFar) {
    const CoverMatrix m = scp_instance(4711);
    // Sweep the trip point from "immediately" to "deep into the solve": the
    // anytime contract (feasible solution, valid bound) must hold at every N.
    for (const std::uint64_t n : {1u, 3u, 10u, 100u}) {
        BudgetOptions bopt;
        bopt.fault = {ucp::fault::Kind::kDeadline, n};
        Budget gov(bopt);
        ScgOptions opt;
        opt.governor = &gov;
        const ScgResult r = solve_scg(m, opt);
        SCOPED_TRACE("fault deadline:" + std::to_string(n));
        ASSERT_FALSE(r.solution.empty());
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_EQ(m.solution_cost(r.solution), r.cost);
        EXPECT_LE(r.lower_bound, r.cost);
        EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kDeadline);
        if (n == 1) EXPECT_EQ(r.status, Status::kDeadline);
    }
}

TEST(Anytime, TwoLevelDeadlineFaultBeforeTableIsReportedNotThrown) {
    const Pla p = random_pla(131);
    TwoLevelOptions opt;
    opt.budget.fault = {ucp::fault::Kind::kDeadline, 1};
    const auto r = minimize_two_level(p, opt);
    // The very first governor poll trips, so no covering table exists yet:
    // the contract is an *empty* result carrying the trip status, not a
    // throw or an abort.
    EXPECT_EQ(r.status, Status::kDeadline);
    EXPECT_EQ(r.cover.size(), 0u);
    EXPECT_FALSE(r.verified);
}

TEST(Anytime, TwoLevelWallClockDeadlineAlreadyExpired) {
    const Pla p = random_pla(137);
    TwoLevelOptions opt;
    opt.budget.deadline_seconds = 1e-9;  // expires before the first poll
    const auto r = minimize_two_level(p, opt);
    EXPECT_EQ(r.status, Status::kDeadline);
}

TEST(Anytime, ScgIterationCapTripsAsDeadline) {
    // A capped run either proves optimality before the cap bites (legitimate
    // kOk) or must report the trip; it never pretends a truncated descent
    // completed. At least one of the seeds is hard enough to trip.
    ucp::Rng seeds(4717);
    int trips = 0;
    for (int trial = 0; trial < 5; ++trial) {
        const CoverMatrix m = scp_instance(seeds());
        BudgetOptions bopt;
        bopt.iteration_cap = 5;
        Budget gov(bopt);
        ScgOptions opt;
        opt.governor = &gov;
        const ScgResult r = solve_scg(m, opt);
        SCOPED_TRACE(trial);
        EXPECT_TRUE(m.is_feasible(r.solution));
        EXPECT_LE(r.lower_bound, r.cost);
        if (r.status == Status::kDeadline)
            ++trips;
        else
            EXPECT_TRUE(r.proved_optimal)
                << "an incomplete capped run must report the trip";
    }
    EXPECT_GE(trips, 1);
}

// A wall-clock Budget deadline is the one way to bound a solve's time. The
// instance is an open unicost row (the u300x100k4 shape of
// gen::unicost_suite): neither solver finishes or proves it within 50 ms, so
// each must stop on the deadline with its best-so-far cover and report it.
struct AnytimeAnswer {
    std::vector<ucp::cov::Index> solution;
    ucp::cov::Cost cost = 0;
    ucp::cov::Cost lower_bound = 0;
    Status status = Status::kOk;
};

struct DeadlineSolver {
    const char* name;
    AnytimeAnswer (*solve)(const CoverMatrix&, Budget&);
};

AnytimeAnswer scg_under(const CoverMatrix& m, Budget& gov) {
    ScgOptions opt;
    opt.num_iter = 10000;
    opt.governor = &gov;
    const ScgResult r = solve_scg(m, opt);
    return {r.solution, r.cost, r.lower_bound, r.status};
}

AnytimeAnswer bnb_under(const CoverMatrix& m, Budget& gov) {
    ucp::solver::BnbOptions opt;
    opt.governor = &gov;
    const ucp::solver::BnbResult r = ucp::solver::solve_exact(m, opt);
    return {r.solution, r.cost, r.lower_bound, r.status};
}

class WallClockDeadline : public ::testing::TestWithParam<DeadlineSolver> {};

TEST_P(WallClockDeadline, StopsWithFeasibleCoverAndValidBound) {
    ucp::gen::UnicostScpOptions g;
    g.rows = 300;
    g.cols = 100;
    g.cols_per_row = 4;
    g.seed = 13;
    const CoverMatrix m = ucp::gen::unicost_scp(g);
    BudgetOptions bopt;
    bopt.deadline_seconds = 0.05;
    Budget gov(bopt);
    const ucp::Timer timer;
    const AnytimeAnswer a = GetParam().solve(m, gov);
    EXPECT_TRUE(m.is_feasible(a.solution));
    EXPECT_EQ(m.solution_cost(a.solution), a.cost);
    EXPECT_LE(a.lower_bound, a.cost);
    EXPECT_EQ(a.status, Status::kDeadline);
    EXPECT_LT(timer.seconds(), 5.0);  // generous: one poll interval may overshoot
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, WallClockDeadline,
    ::testing::Values(DeadlineSolver{"Scg", &scg_under},
                      DeadlineSolver{"Bnb", &bnb_under}),
    [](const ::testing::TestParamInfo<DeadlineSolver>& info) {
        return std::string(info.param.name);
    });

// ---- cancellation -----------------------------------------------------------

TEST(Anytime, CancelTokenEndsTwoLevelSolve) {
    const Pla p = random_pla(139);
    CancelToken cancel;
    cancel.cancel();  // as if SIGINT arrived before the solve
    TwoLevelOptions opt;
    opt.cancel = &cancel;
    const auto r = minimize_two_level(p, opt);
    EXPECT_EQ(r.status, Status::kCancelled);
}

TEST(Anytime, CancelFaultIsDeterministicAcrossThreadCounts) {
    ucp::Rng seeds(7333);
    for (int trial = 0; trial < 3; ++trial) {
        const CoverMatrix m = scp_instance(seeds());
        std::vector<ScgResult> results;
        for (const int threads : {1, 4}) {
            // Each start runs on a fork of the governor with fresh fault
            // counters, so the N-th poll of *each start* trips — making the
            // result independent of how starts are packed onto threads.
            BudgetOptions bopt;
            bopt.fault = {ucp::fault::Kind::kCancel, 7};
            Budget gov(bopt);
            ScgOptions opt;
            opt.seed = 0xabcdULL + trial;
            opt.num_starts = 4;
            opt.num_threads = threads;
            opt.governor = &gov;
            results.push_back(solve_scg(m, opt));
        }
        EXPECT_EQ(results[0].solution, results[1].solution);
        EXPECT_EQ(results[0].cost, results[1].cost);
        EXPECT_EQ(results[0].lower_bound, results[1].lower_bound);
        EXPECT_EQ(results[0].status, results[1].status);
        EXPECT_EQ(results[0].status, Status::kCancelled);
        EXPECT_TRUE(m.is_feasible(results[0].solution));
    }
}

// ---- node budget: graceful implicit → explicit fallback ---------------------

TEST(Anytime, NodeBudgetFallbackMatrixIsBitIdentical) {
    ucp::Rng seeds(7551);
    for (int trial = 0; trial < 4; ++trial) {
        const Pla p = random_pla(seeds(), 5, trial % 2 == 0 ? 1 : 2, 10);

        // Reference: the pure-explicit pipeline, ungoverned.
        ucp::cover::TableBuildOptions explicit_opt;
        explicit_opt.method = ucp::cover::PrimeMethod::kConsensus;
        explicit_opt.row_method = ucp::cover::RowMethod::kExplicit;
        const auto want = ucp::cover::build_covering_table(p, explicit_opt);

        // Governed run with a node budget so small every DD phase trips.
        BudgetOptions bopt;
        bopt.zdd_node_budget = 1;
        Budget gov(bopt);
        ucp::cover::TableBuildOptions auto_opt;
        auto_opt.dd.governor = &gov;
        const auto before =
            ucp::stats::counter("budget.zdd_fallbacks").value();
        const auto got = ucp::cover::build_covering_table(p, auto_opt);
        const auto after = ucp::stats::counter("budget.zdd_fallbacks").value();

        SCOPED_TRACE(p.name);
        EXPECT_GT(after, before) << "fallback was never taken";
        EXPECT_TRUE(gov.node_budget_tripped());
        EXPECT_EQ(gov.status(), Status::kOk)
            << "a node trip must not poison the global deadline status";
        EXPECT_EQ(want.primes.size(), got.primes.size());
        EXPECT_TRUE(same_matrix(want.matrix, got.matrix));
    }
}

TEST(Anytime, NodeBudgetTripStillSolvesToCompletion) {
    std::vector<Pla> plas;
    ucp::Rng seeds(7667);
    for (int trial = 0; trial < 3; ++trial) plas.push_back(random_pla(seeds()));
    // Single-output rows and a multi-output one (t1: budgeted consensus,
    // implicit trip, unbudgeted consensus): the fallback's consensus primes
    // must reach the covering table in the implicit generator's order.
    for (const char* name : {"bench1", "ex1010", "t1"})
        plas.push_back(ucp::gen::instance_by_name(name));
    for (std::size_t t = 0; t < plas.size(); ++t) {
        SCOPED_TRACE("input " + std::to_string(t));
        TwoLevelOptions governed;
        governed.budget.zdd_node_budget = 1;
        const auto r = minimize_two_level(plas[t], governed);
        const auto ref = minimize_two_level(plas[t]);
        // The node budget only redirects *how* the table is built — the
        // answers must be identical to the unbudgeted run.
        EXPECT_EQ(r.status, Status::kOk);
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.prime_method, ucp::cover::PrimeMethod::kConsensus);
        EXPECT_EQ(r.row_method, ucp::cover::RowMethod::kExplicit);
        EXPECT_EQ(r.cost, ref.cost);
        EXPECT_EQ(r.literals, ref.literals);
        EXPECT_EQ(r.lower_bound, ref.lower_bound);
        EXPECT_EQ(r.cover.to_string(), ref.cover.to_string());
    }
}

// ---- fault spec parsing -----------------------------------------------------

TEST(Anytime, FaultSpecParsing) {
    using ucp::fault::Kind;
    using ucp::fault::parse_spec;
    EXPECT_EQ(parse_spec("alloc:3").kind, Kind::kAlloc);
    EXPECT_EQ(parse_spec("alloc:3").at, 3u);
    EXPECT_EQ(parse_spec("deadline:10").kind, Kind::kDeadline);
    EXPECT_EQ(parse_spec("cancel:1").kind, Kind::kCancel);
    // Malformed specs must disable injection, never crash.
    EXPECT_FALSE(parse_spec("").enabled());
    EXPECT_FALSE(parse_spec("alloc").enabled());
    EXPECT_FALSE(parse_spec("alloc:").enabled());
    EXPECT_FALSE(parse_spec("alloc:x").enabled());
    EXPECT_FALSE(parse_spec("frobnicate:3").enabled());
    EXPECT_FALSE(parse_spec(nullptr).enabled());
}

}  // namespace
