#include "matrix/reductions.hpp"

#include <algorithm>
#include <numeric>

#include "kernels/sparse_ops.hpp"
#include "matrix/bit_matrix.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace ucp::cov {

namespace {

constexpr Index kInvalid = ~Index{0};

/// Dirty queues with O(1) membership dedup. A row entering the row queue
/// feeds both the essential recheck and the row-dominance recheck (the two
/// tests that can newly fire when a row loses a column); a column entering
/// the column queue feeds the column-dominance recheck.
struct Worklists {
    std::vector<Index> ess, rowdom, coldom;
    std::vector<char> ess_in, rowdom_in, coldom_in;

    void init(Index rows, Index cols) {
        ess_in.assign(rows, 0);
        rowdom_in.assign(rows, 0);
        coldom_in.assign(cols, 0);
        ess.clear();
        rowdom.clear();
        coldom.clear();
    }
    void dirty_row(Index i) {
        if (ess_in[i] == 0) {
            ess_in[i] = 1;
            ess.push_back(i);
        }
        if (rowdom_in[i] == 0) {
            rowdom_in[i] = 1;
            rowdom.push_back(i);
        }
    }
    void dirty_col(Index j) {
        if (coldom_in[j] == 0) {
            coldom_in[j] = 1;
            coldom.push_back(j);
        }
    }
};

/// Is the live column set of row `a` a subset of row `b`'s? Iterates `a`'s
/// base adjacency skipping dead columns; membership in `b` can be tested on
/// the unfiltered base list because element liveness is global (a column is
/// alive for every row or for none).
bool row_subset(const SubMatrix& v, Index a, Index b) {
    const IndexSpan bs = v.row(b);
    const Index* it = bs.begin();
    for (const Index x : v.row(a)) {
        if (!v.col_alive(x)) continue;
        it = std::lower_bound(it, bs.end(), x);
        if (it == bs.end() || *it != x) return false;
        ++it;
    }
    return true;
}

bool col_subset(const SubMatrix& v, Index a, Index b) {
    const IndexSpan bs = v.col(b);
    const Index* it = bs.begin();
    for (const Index x : v.col(a)) {
        if (!v.row_alive(x)) continue;
        it = std::lower_bound(it, bs.end(), x);
        if (it == bs.end() || *it != x) return false;
        ++it;
    }
    return true;
}

/// Worklist-driven reduction fixpoint over a live view. Seeding every alive
/// row/column reproduces the classical full-pass reducer exactly (same
/// essential order, same removal sets, pass for pass); seeding only the
/// dirtied entities skips the quadratic rescans of everything untouched.
///
/// Why dirty-only is enough: within a pass both dominance scans work on a
/// frozen snapshot (marks are applied after the scan), and a dominance pair
/// can only *newly* hold when the subset side lost an element that the
/// superset side never had — which is exactly when the subset side got
/// dirtied. A clean subset side re-tested against any still-alive partner
/// either already fired in the pass that last scanned it, or was skipped by
/// a tie-break that still applies (equal sets shrink in lockstep because
/// removals hit every adjacency list uniformly).
void run_fixpoint(SubMatrix& v, Worklists& q, const ReduceOptions& opt,
                  bool use_bits, InplaceReduceResult& res) {
    static stats::Counter& c_skips = stats::counter("reduce.dominance_skips");

    const Index R = v.num_rows();
    const Index C = v.num_cols();
    res.used_bitset_kernel = use_bits;

    // Bit-packed mirrors of the live adjacency, built once per call and then
    // maintained incrementally (clear one bit per removed incidence) instead
    // of being rebuilt every pass.
    BitMatrix row_bits, col_bits;
    if (use_bits) {
        row_bits.reset(R, C);
        col_bits.reset(C, R);
        for (Index i = 0; i < R; ++i)
            if (v.row_alive(i))
                row_bits.assign_row_filtered(i, v.row(i), v.col_alive_data());
        for (Index j = 0; j < C; ++j)
            if (v.col_alive(j))
                col_bits.assign_row_filtered(j, v.col(j), v.row_alive_data());
    }

    std::vector<Index> sweep, marked, cand;
    std::vector<char> to_remove_r, to_remove_c, cand_hit;

    while (true) {
        if (q.ess.empty() && q.rowdom.empty() && q.coldom.empty()) break;
        TRACE_SPAN_ITER("reduce.pass");
        ++res.passes;

        // --- essential columns -----------------------------------------------
        // A single ascending sweep suffices: fixing a column kills every row
        // it covers, so no surviving row's live count drops — essentials
        // never cascade inside the phase.
        if (!q.ess.empty()) {
            sweep.assign(q.ess.begin(), q.ess.end());
            q.ess.clear();
            std::sort(sweep.begin(), sweep.end());
            for (const Index i : sweep) {
                q.ess_in[i] = 0;
                if (!v.row_alive(i)) continue;
                UCP_ASSERT(v.live_row_size(i) >= 1);  // empty row ⇒ infeasible
                if (v.live_row_size(i) != 1) continue;
                Index last = kInvalid;
                for (const Index j : v.row(i))
                    if (v.col_alive(j)) {
                        last = j;
                        break;
                    }
                UCP_ASSERT(last != kInvalid);
                res.essential_cols.push_back(last);
                res.fixed_cost += v.cost(last);
                v.fix_col(
                    last, [](Index) {},
                    [&](Index ik, Index j2) {
                        q.dirty_col(j2);
                        if (use_bits) col_bits.clear(j2, ik);
                    });
            }
        }

        // --- row dominance: drop rows whose column set is a superset ---------
        if (!q.rowdom.empty()) {
            if (v.num_live_rows() > opt.max_dominance_rows) {
                // Pass skipped: the view may retain dominated rows (surfaced
                // via dominance_skipped). The pending dirt is dropped — the
                // classical reducer abandons the unscanned work the same way.
                res.dominance_skipped = true;
                c_skips.add();
                for (const Index i : q.rowdom) q.rowdom_in[i] = 0;
                q.rowdom.clear();
            } else {
                sweep.assign(q.rowdom.begin(), q.rowdom.end());
                q.rowdom.clear();
                std::sort(sweep.begin(), sweep.end());
                to_remove_r.assign(R, 0);
                marked.clear();
                for (const Index k : sweep) {
                    q.rowdom_in[k] = 0;
                    if (!v.row_alive(k) || to_remove_r[k] != 0) continue;
                    // Candidates that could be dominated BY k (supersets of
                    // k's columns) all appear in the column lists of k's
                    // columns; scan the cheapest one. Branchless min update:
                    // strict < keeps the first index on ties, exactly like
                    // the short-circuit original, without the unpredictable
                    // branch per span element.
                    Index probe = kInvalid;
                    Index probe_len = ~Index{0};
                    for (const Index j : v.row(k)) {
                        const Index len = v.live_col_size(j);
                        const bool better = v.col_alive(j) && len < probe_len;
                        probe = better ? j : probe;
                        probe_len = better ? len : probe_len;
                    }
                    UCP_ASSERT(probe != kInvalid);
                    if (use_bits) {
                        // Collect the candidates surviving the cheap filters,
                        // then run the whole probe scan through one batched
                        // subset call. Marks are applied after the scan in
                        // the original too (to_remove only dedups), so the
                        // fired set is identical. The filter predicate is
                        // evaluated branchlessly (candidate pass rates hover
                        // near 50% on dense matrices, the worst case for the
                        // branch predictor) with an unconditional write +
                        // conditional advance.
                        const IndexSpan pc = v.col(probe);
                        const Index sk = v.live_row_size(k);
                        cand.resize(pc.size());
                        std::size_t nc = 0;
                        for (const Index i : pc) {
                            const Index li = v.live_row_size(i);
                            const unsigned ok =
                                static_cast<unsigned>(v.row_alive(i)) &
                                static_cast<unsigned>(to_remove_r[i] == 0) &
                                static_cast<unsigned>(i != k) &
                                (static_cast<unsigned>(li > sk) |
                                 (static_cast<unsigned>(li == sk) &
                                  static_cast<unsigned>(i > k)));
                            cand[nc] = i;
                            nc += ok;
                        }
                        cand.resize(nc);
                        cand_hit.assign(cand.size(), 0);
                        kern::subset_batch(row_bits.words_data(),
                                           row_bits.words_per_row(),
                                           row_bits.row_words(k), cand.data(),
                                           cand.size(), cand_hit.data());
                        for (std::size_t t = 0; t < cand.size(); ++t) {
                            if (cand_hit[t] == 0) continue;
                            to_remove_r[cand[t]] = 1;
                            marked.push_back(cand[t]);
                            ++res.rows_removed_dominance;
                        }
                    } else {
                        for (const Index i : v.col(probe)) {
                            if (!v.row_alive(i)) continue;
                            if (i == k || to_remove_r[i] != 0) continue;
                            if (v.live_row_size(i) < v.live_row_size(k))
                                continue;
                            if (v.live_row_size(i) == v.live_row_size(k) &&
                                i < k)
                                continue;  // equal sets: keep the smaller index
                            if (row_subset(v, k, i)) {
                                to_remove_r[i] = 1;
                                marked.push_back(i);
                                ++res.rows_removed_dominance;
                            }
                        }
                    }
                }
                for (const Index i : marked)
                    v.kill_row(i, [&](Index j) {
                        q.dirty_col(j);
                        if (use_bits) col_bits.clear(j, i);
                    });
            }
        }

        // --- column dominance: drop columns covered by a cheaper/equal peer --
        if (!q.coldom.empty()) {
            if (v.num_live_cols() > opt.max_dominance_cols) {
                res.dominance_skipped = true;
                c_skips.add();
                for (const Index j : q.coldom) q.coldom_in[j] = 0;
                q.coldom.clear();
            } else {
                sweep.assign(q.coldom.begin(), q.coldom.end());
                q.coldom.clear();
                std::sort(sweep.begin(), sweep.end());
                to_remove_c.assign(C, 0);
                marked.clear();
                for (const Index j : sweep) {
                    q.coldom_in[j] = 0;
                    if (!v.col_alive(j) || to_remove_c[j] != 0) continue;
                    if (v.live_col_size(j) == 0) {
                        // Covers nothing any more — trivially dominated.
                        to_remove_c[j] = 1;
                        marked.push_back(j);
                        ++res.cols_removed_dominance;
                        continue;
                    }
                    // A dominator of j must appear in every row of j; scan
                    // the shortest row. Branchless min update (see the row
                    // dominance probe above for the equivalence argument).
                    Index probe = kInvalid;
                    Index probe_len = ~Index{0};
                    for (const Index i : v.col(j)) {
                        const Index len = v.live_row_size(i);
                        const bool better = v.row_alive(i) && len < probe_len;
                        probe = better ? i : probe;
                        probe_len = better ? len : probe_len;
                    }
                    UCP_ASSERT(probe != kInvalid);
                    if (use_bits) {
                        // Same candidate order as the sequential scan; the
                        // kernel stops at the first dominator, so stopping
                        // is equivalent to the original break. Branchless
                        // filter, as in row dominance.
                        const IndexSpan pr = v.row(probe);
                        const Index sj = v.live_col_size(j);
                        const Cost cj = v.cost(j);
                        cand.resize(pr.size());
                        std::size_t nc = 0;
                        for (const Index k : pr) {
                            const Index lk = v.live_col_size(k);
                            const Cost ck = v.cost(k);
                            const unsigned ok =
                                static_cast<unsigned>(v.col_alive(k)) &
                                static_cast<unsigned>(k != j) &
                                static_cast<unsigned>(to_remove_c[k] == 0) &
                                static_cast<unsigned>(ck <= cj) &
                                (static_cast<unsigned>(lk > sj) |
                                 (static_cast<unsigned>(lk == sj) &
                                  ~(static_cast<unsigned>(ck == cj) &
                                    static_cast<unsigned>(k > j)) &
                                  1u));
                            cand[nc] = k;
                            nc += ok;
                        }
                        cand.resize(nc);
                        const Index hit = kern::subset_first(
                            col_bits.words_data(), col_bits.words_per_row(),
                            col_bits.row_words(j), cand.data(), cand.size());
                        if (hit < cand.size()) {
                            to_remove_c[j] = 1;
                            marked.push_back(j);
                            ++res.cols_removed_dominance;
                        }
                    } else {
                        for (const Index k : v.row(probe)) {
                            if (!v.col_alive(k)) continue;
                            if (k == j || to_remove_c[k] != 0) continue;
                            if (v.cost(k) > v.cost(j)) continue;
                            if (v.live_col_size(k) < v.live_col_size(j))
                                continue;
                            if (v.live_col_size(k) == v.live_col_size(j) &&
                                v.cost(k) == v.cost(j) && k > j)
                                continue;  // symmetric pair: keep smaller index
                            if (col_subset(v, j, k)) {
                                to_remove_c[j] = 1;
                                marked.push_back(j);
                                ++res.cols_removed_dominance;
                                break;
                            }
                        }
                    }
                }
                for (const Index j : marked)
                    v.remove_col(j, [&](Index i) {
                        q.dirty_row(i);
                        if (use_bits) row_bits.clear(i, j);
                    });
            }
        }
    }
}

/// Drops the alive columns left covering no alive row, keeping columns that
/// were empty in the base (the classical core extraction).
void sweep_uncovering_cols(SubMatrix& v) {
    for (Index j = 0; j < v.num_cols(); ++j)
        if (v.col_alive(j) && !v.col(j).empty() && v.live_col_size(j) == 0)
            v.drop_dead_col(j);
}

}  // namespace

InplaceReduceResult reduce_to_view(const CoverMatrix& m, SubMatrix& v,
                                   const std::vector<Index>& fixed,
                                   const ReduceOptions& opt) {
    static stats::Counter& c_calls = stats::counter("reduce.calls");
    static stats::Counter& c_passes = stats::counter("reduce.passes");
    static stats::Counter& c_rows_dom = stats::counter("reduce.rows_removed_dominance");
    static stats::Counter& c_cols_dom = stats::counter("reduce.cols_removed_dominance");
    static stats::Counter& c_bitset = stats::counter("reduce.bitset_kernel_calls");
    const stats::ScopedTimer phase_timer("reduce.seconds");
    TRACE_SPAN("reduce");
    c_calls.add();

    const Index R = m.num_rows();
    const Index C = m.num_cols();

    const bool use_bits =
        opt.use_bitset == BitsetMode::kOn ||
        (opt.use_bitset == BitsetMode::kAuto && R > 0 && C > 0 &&
         m.density() >= opt.bitset_density_threshold);
    if (use_bits) c_bitset.add();

    v.reset(m);
    for (const Index j : fixed) {
        UCP_REQUIRE(j < C, "fixed column out of range");
        if (!v.col_alive(j)) continue;
        v.fix_col(j, [](Index) {}, [](Index, Index) {});
    }

    // Everything alive starts dirty: the first pass is a full pass, exactly
    // like the classical reducer; later passes only recheck what changed.
    Worklists q;
    q.init(R, C);
    for (Index i = 0; i < R; ++i)
        if (v.row_alive(i)) q.dirty_row(i);
    for (Index j = 0; j < C; ++j)
        if (v.col_alive(j)) q.dirty_col(j);

    InplaceReduceResult in;
    run_fixpoint(v, q, opt, use_bits, in);

    sweep_uncovering_cols(v);  // the alive set is now the cyclic core

    c_passes.add(in.passes);
    c_rows_dom.add(in.rows_removed_dominance);
    c_cols_dom.add(in.cols_removed_dominance);
    return in;
}

ReduceResult reduce(const CoverMatrix& m, const std::vector<Index>& fixed,
                    const ReduceOptions& opt) {
    SubMatrix v;
    InplaceReduceResult in = reduce_to_view(m, v, fixed, opt);

    ReduceResult result;
    result.essential_cols = std::move(in.essential_cols);
    result.fixed_cost = in.fixed_cost;
    result.rows_removed_dominance = in.rows_removed_dominance;
    result.cols_removed_dominance = in.cols_removed_dominance;
    result.passes = in.passes;
    result.dominance_skipped = in.dominance_skipped;
    result.used_bitset_kernel = in.used_bitset_kernel;
    result.core = v.compact(result.core_col_map, result.core_row_map);
    return result;
}

InplaceReduceResult reduce_inplace(SubMatrix& view, const ReduceDirt& dirt,
                                   const ReduceOptions& opt) {
    static stats::Counter& c_calls = stats::counter("reduce.inplace_calls");
    static stats::Counter& c_passes = stats::counter("reduce.passes");
    static stats::Counter& c_rows_dom = stats::counter("reduce.rows_removed_dominance");
    static stats::Counter& c_cols_dom = stats::counter("reduce.cols_removed_dominance");
    static stats::Counter& c_bitset = stats::counter("reduce.bitset_kernel_calls");
    const stats::ScopedTimer phase_timer("reduce.seconds");
    TRACE_SPAN_ITER("reduce.inplace");
    c_calls.add();

    const Index lr = view.num_live_rows();
    const Index lc = view.num_live_cols();
    double density = 0.0;
    if (lr > 0 && lc > 0) {
        const std::uint64_t live_entries = kern::sum_u32_masked(
            view.live_row_size_data(), view.row_alive_data(), view.num_rows());
        density = static_cast<double>(live_entries) /
                  (static_cast<double>(lr) * static_cast<double>(lc));
    }
    const bool use_bits =
        opt.use_bitset == BitsetMode::kOn ||
        (opt.use_bitset == BitsetMode::kAuto && lr > 0 && lc > 0 &&
         density >= opt.bitset_density_threshold);
    if (use_bits) c_bitset.add();

    Worklists q;
    q.init(view.num_rows(), view.num_cols());
    for (const Index i : dirt.rows)
        if (view.row_alive(i)) q.dirty_row(i);
    for (const Index j : dirt.cols)
        if (view.col_alive(j)) q.dirty_col(j);

    InplaceReduceResult res;
    run_fixpoint(view, q, opt, use_bits, res);
    c_passes.add(res.passes);
    c_rows_dom.add(res.rows_removed_dominance);
    c_cols_dom.add(res.cols_removed_dominance);
    return res;
}

bool branch_view(const CoverMatrix& parent, const ReduceDirt& stale,
                 std::span<const Index> forbidden, Index fixed, SubMatrix& v,
                 ReduceDirt& dirt) {
    v.reset(parent);
    dirt = stale;
    for (const Index j : forbidden) {
        bool covered = true;
        v.remove_col(j, [&](Index i) {
            dirt.rows.push_back(i);
            covered = covered && v.live_row_size(i) != 0;
        });
        if (!covered) return false;
    }
    v.fix_col(
        fixed, [](Index) {},
        [&](Index, Index j2) { dirt.cols.push_back(j2); });
    return true;
}

InplaceReduceResult reduce_branch(SubMatrix& v, const ReduceDirt& dirt,
                                  const ReduceOptions& opt) {
    InplaceReduceResult res = reduce_inplace(v, dirt, opt);
    sweep_uncovering_cols(v);
    return res;
}

std::vector<Partition> partition_blocks(const CoverMatrix& m) {
    const Index R = m.num_rows();
    const Index C = m.num_cols();
    constexpr Index kNone = ~Index{0};
    std::vector<Index> row_block(R, kNone), col_block(C, kNone);

    Index num_blocks = 0;
    for (Index start = 0; start < R; ++start) {
        if (row_block[start] != kNone) continue;
        const Index b = num_blocks++;
        // BFS over the bipartite incidence graph.
        std::vector<Index> queue{start};
        row_block[start] = b;
        while (!queue.empty()) {
            const Index i = queue.back();
            queue.pop_back();
            for (const Index j : m.row(i)) {
                if (col_block[j] != kNone) continue;
                col_block[j] = b;
                for (const Index i2 : m.col(j)) {
                    if (row_block[i2] != kNone) continue;
                    row_block[i2] = b;
                    queue.push_back(i2);
                }
            }
        }
    }

    std::vector<Partition> blocks(num_blocks);
    std::vector<std::vector<std::vector<Index>>> rows(num_blocks);
    std::vector<std::vector<Cost>> costs(num_blocks);
    std::vector<Index> col_new(C, 0);
    for (Index j = 0; j < C; ++j) {
        const Index b = col_block[j];
        if (b == kNone) continue;  // column covers nothing: drop
        col_new[j] = static_cast<Index>(blocks[b].col_map.size());
        blocks[b].col_map.push_back(j);
        costs[b].push_back(m.cost(j));
    }
    for (Index i = 0; i < R; ++i) {
        const Index b = row_block[i];
        std::vector<Index> r;
        r.reserve(m.row(i).size());
        for (const Index j : m.row(i)) r.push_back(col_new[j]);
        rows[b].push_back(std::move(r));
        blocks[b].row_map.push_back(i);
    }
    for (Index b = 0; b < num_blocks; ++b) {
        blocks[b].matrix = CoverMatrix::from_rows(
            static_cast<Index>(blocks[b].col_map.size()), std::move(rows[b]),
            std::move(costs[b]));
    }
    return blocks;
}

}  // namespace ucp::cov
