// Failure injection and edge cases: every guard must fire as documented, and
// degenerate option values must not crash or corrupt results.
#include <gtest/gtest.h>

#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "lagrangian/subgradient.hpp"
#include "lp/simplex.hpp"
#include "solver/scg.hpp"
#include "solver/two_level.hpp"
#include "util/rng.hpp"
#include "zdd/zdd.hpp"
#include "zdd_fixtures.hpp"

namespace {

using ucp::cov::CoverMatrix;
using ucp::zdd::ZddManager;
using ucp::zdd::fixtures::cube;

TEST(Robustness, SubgradientDegenerateOptions) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(8, 3);
    ucp::lagr::SubgradientOptions opt;
    opt.max_iterations = 0;  // no iterations: incumbent comes from greedy
    const auto r0 = ucp::lagr::subgradient_ascent(m, opt);
    EXPECT_TRUE(m.is_feasible(r0.best_solution));
    EXPECT_GE(r0.lb, 0);

    opt.max_iterations = 3;
    opt.t0 = 0.0;  // zero step: λ frozen at the dual-ascent start
    const auto r1 = ucp::lagr::subgradient_ascent(m, opt);
    EXPECT_TRUE(m.is_feasible(r1.best_solution));

    opt.t0 = 2.0;
    opt.heuristic_period = 1;  // heuristic every iteration
    opt.halve_after = 1;       // aggressive halving
    const auto r2 = ucp::lagr::subgradient_ascent(m, opt);
    EXPECT_TRUE(m.is_feasible(r2.best_solution));
    EXPECT_LE(r2.lb, 3);
}

TEST(Robustness, ScgZeroRestartsStillReturnsRootSolution) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(10, 3);
    ucp::solver::ScgOptions opt;
    opt.num_iter = 0;
    const auto r = ucp::solver::solve_scg(m, opt);
    EXPECT_TRUE(m.is_feasible(r.solution));
    EXPECT_EQ(r.runs_executed, 0);
}

TEST(Robustness, ScgExtremeAlphaAndThresholds) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(12, 4);
    for (const double alpha : {-5.0, 0.0, 1000.0}) {
        ucp::solver::ScgOptions opt;
        opt.alpha = alpha;
        const auto r = ucp::solver::solve_scg(m, opt);
        EXPECT_TRUE(m.is_feasible(r.solution)) << "alpha " << alpha;
    }
    ucp::solver::ScgOptions promiscuous;
    promiscuous.c_hat = 1e9;    // every column "promising" on cost...
    promiscuous.mu_hat = -1.0;  // ...and on µ: fixes everything at once
    const auto r = ucp::solver::solve_scg(m, promiscuous);
    EXPECT_TRUE(m.is_feasible(r.solution));
}

TEST(Robustness, SimplexIterationLimit) {
    ucp::gen::RandomScpOptions g;
    g.rows = 30;
    g.cols = 60;
    g.density = 0.1;
    g.seed = 5;
    const auto m = ucp::gen::random_scp(g);
    std::vector<std::vector<double>> a(m.num_rows(),
                                       std::vector<double>(m.num_cols(), 0.0));
    for (ucp::cov::Index i = 0; i < m.num_rows(); ++i)
        for (const auto j : m.row(i)) a[i][j] = 1.0;
    const std::vector<double> b(m.num_rows(), 1.0);
    const std::vector<double> c(m.num_cols(), 1.0);
    const std::vector<double> ub(m.num_cols(), 1.0);
    const auto r = ucp::lp::simplex_min(a, b, c, ub, /*max_iterations=*/3);
    EXPECT_EQ(r.status, ucp::lp::LpStatus::kIterLimit);
}

TEST(Robustness, TableBuilderGuardsAndDegeneratePlas) {
    // Empty on-set (all cubes in the DC plane): an empty covering problem.
    ucp::pla::Pla p;
    const ucp::pla::CubeSpace s{4, 1};
    p.on = ucp::pla::Cover(s);
    p.dc = ucp::pla::Cover::from_strings(s, {{"1---", "1"}});
    p.off = ucp::pla::Cover(s);
    const auto table = ucp::cover::build_covering_table(p);
    EXPECT_EQ(table.matrix.num_rows(), 0u);

    const auto r = ucp::solver::minimize_two_level(p);
    EXPECT_EQ(r.cost, 0);
    EXPECT_TRUE(r.verified);  // the empty cover implements the empty on-set
}

TEST(Robustness, OnsetMatrixRejectsNonCoveringColumns) {
    const ucp::pla::CubeSpace s{3, 1};
    ucp::pla::Pla p;
    p.on = ucp::pla::Cover::from_strings(s, {{"11-", "1"}, {"00-", "1"}});
    p.dc = ucp::pla::Cover(s);
    p.off = ucp::pla::Cover(s);
    // Columns covering only half of the on-set.
    ucp::pla::Cover columns(s);
    columns.add(ucp::pla::Cube::parse(s, "11-", "1"));
    EXPECT_THROW(ucp::cover::onset_covering_matrix(p, columns),
                 std::invalid_argument);
}

TEST(Robustness, ZddGcChurn) {
    // Repeated garbage creation with interleaved collections must preserve a
    // pinned family bit-for-bit.
    ZddManager mgr(12);
    ucp::Rng rng(3);
    ucp::zdd::Zdd keep = mgr.empty();
    for (int i = 0; i < 50; ++i) {
        std::vector<ucp::zdd::Var> set;
        for (ucp::zdd::Var v = 0; v < 12; ++v)
            if (rng.chance(0.4)) set.push_back(v);
        keep = mgr.union_(keep, cube(mgr, set));
    }
    const double count = keep.count();
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 100; ++i) {
            const auto junk =
                cube(mgr, {}, {static_cast<ucp::zdd::Var>(i % 12),
                               static_cast<ucp::zdd::Var>((i + 5) % 12)});
            (void)junk;
        }
        mgr.gc();
        ASSERT_DOUBLE_EQ(keep.count(), count);
    }
}

TEST(Robustness, ZddDeepChains) {
    // A 4000-variable chain exercises growth and rehashing. With chain
    // nodes each segment covers up to 256 consecutive levels; with the
    // encoding off every level is its own node.
    const ucp::zdd::Var n = 4000;
    ucp::zdd::DdOptions chained;
    chained.chain_nodes = true;
    ZddManager mgr(n, chained);
    std::vector<ucp::zdd::Var> all(n);
    for (ucp::zdd::Var v = 0; v < n; ++v) all[v] = v;
    const auto big = cube(mgr, all);
    EXPECT_EQ(big.node_count(), (n + 255) / 256);
    EXPECT_DOUBLE_EQ(big.count(), 1.0);
    const auto ps = cube(mgr, {}, {0, 100, 2000, 3999});
    EXPECT_DOUBLE_EQ(ps.count(), 16.0);

    ucp::zdd::DdOptions plain;
    plain.chain_nodes = false;
    ZddManager flat(n, plain);
    const auto big_flat = cube(flat, all);
    EXPECT_EQ(big_flat.node_count(), n);
    EXPECT_DOUBLE_EQ(big_flat.count(), 1.0);
}

TEST(Robustness, EmptyCoveringMatrixEverywhere) {
    const CoverMatrix m = CoverMatrix::from_rows(5, {});
    EXPECT_TRUE(m.is_feasible({}));
    const auto scg = ucp::solver::solve_scg(m);
    EXPECT_EQ(scg.cost, 0);
    EXPECT_TRUE(scg.proved_optimal);
}

TEST(Robustness, SingleRowSingleColumn) {
    const CoverMatrix m = CoverMatrix::from_rows(1, {{0}}, {7});
    const auto r = ucp::solver::solve_scg(m);
    EXPECT_EQ(r.cost, 7);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_EQ(r.solution, (std::vector<ucp::cov::Index>{0}));
}

}  // namespace
