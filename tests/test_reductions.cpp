// Explicit reductions: essentials, row/column dominance, cyclic cores, and
// the optimum-preservation property checked against exhaustive search.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/scp_gen.hpp"
#include "matrix/reductions.hpp"
#include "util/rng.hpp"

namespace {

using ucp::cov::Cost;
using ucp::cov::CoverMatrix;
using ucp::cov::Index;
using ucp::cov::reduce;
using ucp::cov::ReduceResult;

/// Exhaustive optimum for tiny matrices.
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

TEST(Reductions, EssentialColumnDetection) {
    // Row 0 covered only by col 0 → essential; its rows vanish.
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0}, {0, 1}, {1, 2}}, {1, 1, 1});
    const ReduceResult r = reduce(m);
    ASSERT_EQ(r.essential_cols.size(), 2u);  // col0 essential, then col1 or 2
    EXPECT_EQ(r.essential_cols[0], 0u);
    EXPECT_EQ(r.fixed_cost, 2);
    EXPECT_TRUE(r.solved());
}

TEST(Reductions, RowDominanceRemovesSuperset) {
    // Row 1 ⊇ row 0 → row 1 removed; then col 2 covers nothing and col1
    // equals col0... with unit costs col domination leaves one.
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0, 1}, {0, 1, 2}}, {1, 1, 1});
    const ReduceResult r = reduce(m);
    EXPECT_GE(r.rows_removed_dominance, 1u);
    // After removing row 1, row 0 has cols {0,1}; dominance keeps col 0.
    EXPECT_TRUE(r.solved() || r.core.num_rows() <= 1);
}

TEST(Reductions, ColumnDominanceRespectsCost) {
    // Equal column supports, different costs: the cheap one must win.
    const CoverMatrix m =
        CoverMatrix::from_rows(2, {{0, 1}, {0, 1}}, {2, 1});
    const ReduceResult r = reduce(m);
    EXPECT_TRUE(r.solved());
    ASSERT_EQ(r.essential_cols.size(), 1u);
    EXPECT_EQ(r.essential_cols[0], 1u);
    EXPECT_EQ(r.fixed_cost, 1);

    // Cheaper column with a smaller support must NOT be removed by an
    // expensive superset column.
    const CoverMatrix m2 = CoverMatrix::from_rows(
        3, {{0, 1}, {1, 2}, {0, 2}}, {1, 5, 1});
    const ReduceResult r2 = reduce(m2);
    bool col0_alive = false;
    for (const Index j : r2.core_col_map) col0_alive |= (j == 0);
    for (const Index j : r2.essential_cols) col0_alive |= (j == 0);
    EXPECT_TRUE(col0_alive);
}

TEST(Reductions, DominatedColumnRemoved) {
    // col 0 rows {0}; col 1 rows {0,1} same cost: col 0 dominated.
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0, 1, 2}, {1, 2}}, {1, 1, 1});
    const ReduceResult r = reduce(m);
    EXPECT_TRUE(r.solved());
    ASSERT_EQ(r.essential_cols.size(), 1u);
    EXPECT_EQ(r.essential_cols[0], 1u);  // cheapest dominator covers all
}

TEST(Reductions, CyclicCoreIsStable) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(9, 3);
    const ReduceResult r = reduce(m);
    // The circulant has no essentials and no dominance: it IS the core.
    EXPECT_TRUE(r.essential_cols.empty());
    EXPECT_EQ(r.core.num_rows(), 9u);
    EXPECT_EQ(r.core.num_cols(), 9u);
    EXPECT_EQ(r.rows_removed_dominance, 0u);
    EXPECT_EQ(r.cols_removed_dominance, 0u);
}

TEST(Reductions, FixedColumnsRemoveRows) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(6, 2);
    const ReduceResult r = reduce(m, {0});  // fix col 0: rows 5, 0 covered
    EXPECT_LE(r.core.num_rows(), 4u);
    // fixed columns never appear in essentials
    for (const Index j : r.essential_cols) EXPECT_NE(j, 0u);
}

TEST(Reductions, PreservesOptimumOnRandomInstances) {
    ucp::Rng seeds(2025);
    for (int trial = 0; trial < 40; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 8;
        opt.cols = 10;
        opt.density = 0.25;
        opt.min_cost = 1;
        opt.max_cost = 1 + trial % 4;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const Cost opt_cost = brute_optimum(m);

        const ReduceResult r = reduce(m);
        Cost reduced_opt = r.fixed_cost;
        if (!r.solved()) reduced_opt += brute_optimum(r.core);
        EXPECT_EQ(reduced_opt, opt_cost) << "seed " << opt.seed;
    }
}

TEST(Reductions, MapsAreConsistent) {
    ucp::gen::RandomScpOptions opt;
    opt.rows = 12;
    opt.cols = 15;
    opt.density = 0.2;
    opt.seed = 99;
    const CoverMatrix m = ucp::gen::random_scp(opt);
    const ReduceResult r = reduce(m);
    r.core.validate();
    for (Index j = 0; j < r.core.num_cols(); ++j) {
        EXPECT_LT(r.core_col_map[j], m.num_cols());
        EXPECT_EQ(r.core.cost(j), m.cost(r.core_col_map[j]));
    }
    for (Index i = 0; i < r.core.num_rows(); ++i) {
        EXPECT_LT(r.core_row_map[i], m.num_rows());
        // Each core entry exists in the original matrix.
        for (const Index j : r.core.row(i))
            EXPECT_TRUE(m.entry(r.core_row_map[i], r.core_col_map[j]));
    }
}

TEST(Reductions, SolvedProblemGivesFeasibleEssentials) {
    ucp::Rng seeds(7);
    for (int trial = 0; trial < 20; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 10;
        opt.cols = 8;
        opt.density = 0.35;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);
        const ReduceResult r = reduce(m);
        if (r.solved()) {
            EXPECT_TRUE(m.is_feasible(r.essential_cols));
        }
    }
}

// ---------------------------------------------------------------------------
// Worklist engine (reduce_inplace) vs the full-pass reducer.
// ---------------------------------------------------------------------------

using ucp::cov::ReduceDirt;
using ucp::cov::SubMatrix;

std::vector<Index> alive_rows(const SubMatrix& v) {
    std::vector<Index> out;
    for (Index i = 0; i < v.num_rows(); ++i)
        if (v.row_alive(i)) out.push_back(i);
    return out;
}

std::vector<Index> alive_cols(const SubMatrix& v) {
    std::vector<Index> out;
    for (Index j = 0; j < v.num_cols(); ++j)
        if (v.col_alive(j)) out.push_back(j);
    return out;
}

ReduceDirt all_dirty(const CoverMatrix& m) {
    ReduceDirt dirt;
    for (Index i = 0; i < m.num_rows(); ++i) dirt.rows.push_back(i);
    for (Index j = 0; j < m.num_cols(); ++j) dirt.cols.push_back(j);
    return dirt;
}

TEST(Reductions, WorklistAllDirtyMatchesFullReduce) {
    // Seeding every row/column dirty must reproduce the classical full
    // reduction exactly: same essentials, same order, same core.
    ucp::Rng seeds(4242);
    for (int trial = 0; trial < 60; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 8 + trial % 14;
        opt.cols = 10 + trial % 18;
        opt.density = 0.15 + 0.02 * (trial % 8);
        opt.min_cost = 1;
        opt.max_cost = 1 + trial % 4;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);

        const ReduceResult full = reduce(m);

        SubMatrix v(m);
        const auto inc = ucp::cov::reduce_inplace(v, all_dirty(m));
        v.validate();

        EXPECT_EQ(inc.essential_cols, full.essential_cols)
            << "seed " << opt.seed;
        EXPECT_EQ(inc.fixed_cost, full.fixed_cost);
        EXPECT_EQ(inc.rows_removed_dominance, full.rows_removed_dominance);

        // Sweep columns left covering nothing, exactly like reduce() does,
        // then the surviving view must be the same cyclic core.
        for (Index j = 0; j < m.num_cols(); ++j)
            if (v.col_alive(j) && !m.col(j).empty() && v.live_col_size(j) == 0)
                v.drop_dead_col(j);
        EXPECT_EQ(alive_rows(v), full.core_row_map) << "seed " << opt.seed;
        EXPECT_EQ(alive_cols(v), full.core_col_map) << "seed " << opt.seed;

        std::vector<Index> cmap, rmap;
        const CoverMatrix core = v.compact(cmap, rmap);
        ASSERT_EQ(core.num_rows(), full.core.num_rows());
        ASSERT_EQ(core.num_cols(), full.core.num_cols());
        for (Index j = 0; j < core.num_cols(); ++j)
            EXPECT_EQ(core.cost(j), full.core.cost(j));
        for (Index i = 0; i < core.num_rows(); ++i) {
            const auto a = core.row(i);
            const auto b = full.core.row(i);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
        }
    }
}

TEST(Reductions, WorklistIncrementalMatchesFullReduce) {
    // From a view at fixpoint, apply SCG-style mutations (remove / fix
    // columns) collecting dirt, then the dirt-seeded incremental fixpoint
    // must land on the same alive set as a full reduction of the mutated
    // problem.
    ucp::Rng seeds(777);
    int compared = 0;
    for (int trial = 0; trial < 80; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 10 + trial % 12;
        opt.cols = 14 + trial % 20;
        opt.density = 0.18 + 0.02 * (trial % 7);
        opt.min_cost = 1;
        opt.max_cost = 1 + trial % 5;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);

        SubMatrix v(m);
        (void)ucp::cov::reduce_inplace(v, all_dirty(m));
        if (v.num_live_rows() == 0 || v.num_live_cols() < 4) continue;

        // Mutate: fix one alive column, remove one alive column (only when
        // removal leaves every touched row still covered).
        ReduceDirt dirt;
        ucp::Rng pick(seeds());
        const auto cols = alive_cols(v);
        const Index fix_j = cols[pick.below(cols.size())];
        v.fix_col(
            fix_j, [](Index) {},
            [&](Index, Index j2) { dirt.cols.push_back(j2); });
        bool removed = false;
        for (const Index j : alive_cols(v)) {
            bool safe = true;
            for (const Index i : v.col(j))
                if (v.row_alive(i) && v.live_row_size(i) <= 1) {
                    safe = false;
                    break;
                }
            if (!safe) continue;
            v.remove_col(j, [&](Index i) { dirt.rows.push_back(i); });
            removed = true;
            break;
        }
        if (v.num_live_rows() == 0) continue;
        (void)removed;
        ++compared;

        // Reference: full reduction of the compacted mutated problem.
        std::vector<Index> mut_cmap, mut_rmap;
        const CoverMatrix mut = v.compact(mut_cmap, mut_rmap);
        const ReduceResult full = reduce(mut);

        const auto inc = ucp::cov::reduce_inplace(v, dirt);
        v.validate();
        EXPECT_EQ(inc.fixed_cost, full.fixed_cost) << "seed " << opt.seed;

        std::vector<Index> ess_inc = inc.essential_cols;
        std::vector<Index> ess_full;
        for (const Index j : full.essential_cols)
            ess_full.push_back(mut_cmap[j]);
        std::sort(ess_inc.begin(), ess_inc.end());
        std::sort(ess_full.begin(), ess_full.end());
        EXPECT_EQ(ess_inc, ess_full) << "seed " << opt.seed;

        std::vector<Index> rows_full;
        for (const Index i : full.core_row_map) rows_full.push_back(mut_rmap[i]);
        std::vector<Index> cols_full;
        for (const Index j : full.core_col_map) cols_full.push_back(mut_cmap[j]);
        for (Index j = 0; j < m.num_cols(); ++j)
            if (v.col_alive(j) && v.live_col_size(j) == 0) v.drop_dead_col(j);
        EXPECT_EQ(alive_rows(v), rows_full) << "seed " << opt.seed;
        EXPECT_EQ(alive_cols(v), cols_full) << "seed " << opt.seed;
    }
    EXPECT_GT(compared, 30);
}

TEST(Reductions, WorklistBitsetKernelMatchesSorted) {
    // Both dominance kernels must drive the worklist engine to the same
    // fixpoint.
    ucp::Rng seeds(31337);
    for (int trial = 0; trial < 30; ++trial) {
        ucp::gen::RandomScpOptions opt;
        opt.rows = 12 + trial % 10;
        opt.cols = 16 + trial % 12;
        opt.density = 0.25;
        opt.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(opt);

        ucp::cov::ReduceOptions sorted_opt;
        sorted_opt.use_bitset = ucp::cov::BitsetMode::kOff;
        ucp::cov::ReduceOptions bitset_opt;
        bitset_opt.use_bitset = ucp::cov::BitsetMode::kOn;

        SubMatrix vs(m), vb(m);
        const auto rs = ucp::cov::reduce_inplace(vs, all_dirty(m), sorted_opt);
        const auto rb = ucp::cov::reduce_inplace(vb, all_dirty(m), bitset_opt);
        EXPECT_FALSE(rs.used_bitset_kernel);
        EXPECT_TRUE(rb.used_bitset_kernel);
        EXPECT_EQ(rs.essential_cols, rb.essential_cols) << "seed " << opt.seed;
        EXPECT_EQ(rs.fixed_cost, rb.fixed_cost);
        EXPECT_EQ(alive_rows(vs), alive_rows(vb));
        EXPECT_EQ(alive_cols(vs), alive_cols(vb));
    }
}

// ---------------------------------------------------------------------------
// Branch-and-bound children: branch_view + reduce_branch vs stripping the
// forbidden columns and reducing the copy in full.
// ---------------------------------------------------------------------------

void expect_same_matrix(const CoverMatrix& a, const CoverMatrix& b) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_cols(), b.num_cols());
    for (Index j = 0; j < a.num_cols(); ++j) EXPECT_EQ(a.cost(j), b.cost(j));
    for (Index i = 0; i < a.num_rows(); ++i)
        EXPECT_TRUE(a.row(i) == b.row(i)) << "row " << i;
}

/// Checks every branch of a shortest row of `parent` (whose rows/columns off
/// the reduction fixpoint are `stale`): the child view's core, essentials
/// and counters must equal those of the strip + full-reduction reference.
/// Adds the number of feasible branches compared to `compared`.
void check_branches(const CoverMatrix& parent, const ReduceDirt& stale,
                    const ucp::cov::ReduceOptions& opt, int& compared) {
    Index shortest = 0;
    for (Index i = 1; i < parent.num_rows(); ++i)
        if (parent.row(i).size() < parent.row(shortest).size()) shortest = i;
    const std::vector<Index> branch = parent.row(shortest);
    for (std::size_t k = 0; k < branch.size(); ++k) {
        SCOPED_TRACE("branch " + std::to_string(k));
        SubMatrix v;
        ReduceDirt dirt;
        const bool ok = ucp::cov::branch_view(parent, stale, {branch.data(), k},
                                              branch[k], v, dirt);

        std::vector<bool> forbidden(parent.num_cols(), false);
        for (std::size_t b = 0; b < k; ++b) forbidden[branch[b]] = true;
        CoverMatrix own;
        std::vector<Index> own_map;
        ASSERT_EQ(ok, ucp::cov::strip_columns(parent, forbidden, own, own_map));
        if (!ok) continue;
        ++compared;
        const Index fixed = static_cast<Index>(
            std::find(own_map.begin(), own_map.end(), branch[k]) -
            own_map.begin());
        SubMatrix rv;
        const auto ref = ucp::cov::reduce_to_view(own, rv, {fixed}, opt);
        const auto red = ucp::cov::reduce_branch(v, dirt, opt);
        v.validate();

        std::vector<Index> ref_ess;
        for (const Index j : ref.essential_cols) ref_ess.push_back(own_map[j]);
        EXPECT_EQ(red.essential_cols, ref_ess);
        EXPECT_EQ(red.fixed_cost, ref.fixed_cost);
        EXPECT_EQ(red.rows_removed_dominance, ref.rows_removed_dominance);
        EXPECT_EQ(red.cols_removed_dominance, ref.cols_removed_dominance);
        EXPECT_EQ(red.passes, ref.passes);

        std::vector<Index> cmap, rmap, ref_cmap, ref_rmap;
        const CoverMatrix core = v.compact(cmap, rmap);
        const CoverMatrix ref_core = rv.compact(ref_cmap, ref_rmap);
        expect_same_matrix(core, ref_core);
        for (auto& j : ref_cmap) j = own_map[j];
        EXPECT_EQ(cmap, ref_cmap);
        EXPECT_EQ(rmap, ref_rmap);  // the strip keeps every row's index
    }
}

TEST(Reductions, BranchViewMatchesStripAndFullReduce) {
    // 240 unicost and weighted matrices, k = 2–5 columns per row, reduced to
    // their core with each dominance kernel; half get a random column strip
    // first, as the limit bound makes, whose rows go in as stale.
    ucp::Rng seeds(2718);
    int compared = 0, stripped = 0;
    for (int trial = 0; trial < 240; ++trial) {
        ucp::gen::UnicostScpOptions g;
        g.rows = 24 + trial % 5 * 8;
        g.cols = 12 + trial % 7 * 3;
        g.cols_per_row = 2 + trial % 4;
        g.seed = seeds();
        CoverMatrix m = ucp::gen::unicost_scp(g);
        if (trial % 2 == 1) {  // weighted
            ucp::Rng costs(g.seed);
            std::vector<std::vector<Index>> rows;
            for (Index i = 0; i < m.num_rows(); ++i) rows.push_back(m.row(i));
            std::vector<Cost> c(m.num_cols());
            for (auto& x : c) x = costs.between(1, 4);
            m = CoverMatrix::from_rows(m.num_cols(), std::move(rows),
                                       std::move(c));
        }
        for (const auto mode : {ucp::cov::BitsetMode::kOff,
                                ucp::cov::BitsetMode::kOn}) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " kernel " +
                         std::to_string(static_cast<int>(mode)));
            ucp::cov::ReduceOptions opt;
            opt.use_bitset = mode;
            const ReduceResult r = reduce(m, {}, opt);
            if (r.solved()) continue;
            check_branches(r.core, {}, opt, compared);

            // Strip a random column set, keeping every row covered.
            ucp::Rng pick(g.seed ^ static_cast<std::uint64_t>(mode));
            std::vector<bool> mask(r.core.num_cols(), false);
            for (Index j = 0; j < r.core.num_cols(); ++j)
                mask[j] = trial % 4 < 2 && pick.chance(0.2);
            CoverMatrix strip;
            std::vector<Index> strip_map;
            if (std::find(mask.begin(), mask.end(), true) == mask.end() ||
                !ucp::cov::strip_columns(r.core, mask, strip, strip_map))
                continue;
            ReduceDirt stale;
            for (Index j = 0; j < r.core.num_cols(); ++j)
                if (mask[j])
                    for (const Index i : r.core.col(j)) stale.rows.push_back(i);
            ++stripped;
            check_branches(strip, stale, opt, compared);
        }
    }
    EXPECT_GT(compared, 1000);
    EXPECT_GT(stripped, 60);
}

TEST(Reductions, BranchViewOffFixpointReducesInFull) {
    // A parent not at its fixpoint (the unreduced matrix, as after a
    // skipped dominance pass) with every row and column stale: each child
    // is a full reduction.
    ucp::Rng seeds(1618);
    int compared = 0;
    for (int trial = 0; trial < 40; ++trial) {
        ucp::gen::RandomScpOptions g;
        g.rows = 12 + trial % 10;
        g.cols = 14 + trial % 12;
        g.density = 0.2 + 0.02 * (trial % 5);
        g.min_cost = 1;
        g.max_cost = 1 + trial % 3;
        g.seed = seeds();
        const CoverMatrix m = ucp::gen::random_scp(g);
        SCOPED_TRACE("seed " + std::to_string(g.seed));
        check_branches(m, all_dirty(m), {}, compared);
    }
    EXPECT_GT(compared, 80);
}

// ---------------------------------------------------------------------------
// SubMatrix view primitives.
// ---------------------------------------------------------------------------

TEST(SubMatrix, CountersAndCompactRoundTrip) {
    const CoverMatrix m = ucp::gen::cyclic_matrix(8, 3);
    SubMatrix v(m);
    v.validate();
    EXPECT_EQ(v.num_live_rows(), 8u);
    EXPECT_EQ(v.num_live_cols(), 8u);
    EXPECT_EQ(v.live_fraction(), 1.0);

    std::vector<Index> touched;
    v.kill_row(2, [&](Index j) { touched.push_back(j); });
    EXPECT_EQ(touched.size(), 3u);  // row 2 had 3 columns, all alive
    EXPECT_EQ(v.num_live_rows(), 7u);
    for (const Index j : touched)
        EXPECT_EQ(v.live_col_size(j), m.col(j).size() - 1);
    v.validate();

    std::vector<Index> rows_touched;
    v.remove_col(5, [&](Index i) { rows_touched.push_back(i); });
    for (const Index i : rows_touched)
        EXPECT_EQ(v.live_row_size(i), m.row(i).size() - 1);
    v.validate();

    std::vector<Index> cmap, rmap;
    const CoverMatrix c = v.compact(cmap, rmap);
    c.validate();
    EXPECT_EQ(c.num_rows(), v.num_live_rows());
    EXPECT_EQ(c.num_cols(), v.num_live_cols());
    // Monotone remaps, entries preserved.
    for (Index i = 0; i + 1 < c.num_rows(); ++i) EXPECT_LT(rmap[i], rmap[i + 1]);
    for (Index j = 0; j + 1 < c.num_cols(); ++j) EXPECT_LT(cmap[j], cmap[j + 1]);
    for (Index i = 0; i < c.num_rows(); ++i) {
        EXPECT_EQ(c.row(i).size(), v.live_row_size(rmap[i]));
        for (const Index j : c.row(i))
            EXPECT_TRUE(m.entry(rmap[i], cmap[j]));
    }
}

TEST(SubMatrix, FixColKillsCoveredRows) {
    const CoverMatrix m =
        CoverMatrix::from_rows(3, {{0, 1}, {1, 2}, {0, 2}}, {1, 1, 1});
    SubMatrix v(m);
    std::vector<Index> killed;
    v.fix_col(
        0, [&](Index i) { killed.push_back(i); }, [](Index, Index) {});
    EXPECT_EQ(killed, (std::vector<Index>{0, 2}));
    EXPECT_FALSE(v.col_alive(0));
    EXPECT_FALSE(v.row_alive(0));
    EXPECT_TRUE(v.row_alive(1));
    EXPECT_FALSE(v.row_alive(2));
    EXPECT_EQ(v.num_live_rows(), 1u);
    v.validate();
    // live_fraction: min(1/3 rows, 2/3 cols) = 1/3.
    EXPECT_EQ(v.live_fraction(), 1.0 / 3.0);
}

}  // namespace
