// Classical explicit reductions for unate covering (survey: Villa et al. [23]):
//   * essential columns     — a row covered by a single column fixes it;
//   * row dominance         — a row whose column set is a superset of another
//                             row's is a weaker constraint and is removed;
//   * column dominance      — a column covering a subset of another column's
//                             rows at no lower cost is removed;
//   * Gimpel's reduction    — optional, applied when a row has exactly two
//                             columns and one is unit-cost (extension hook).
//
// Iterated to a fixed point they yield the *cyclic core* (paper §2). The
// reducer also accepts pre-fixed columns (the SCG loop fixes columns and
// re-reduces, Fig. 2).
//
// The dominance subset tests have two interchangeable kernels: the sorted
// adjacency-vector merge (reference implementation, best on sparse matrices)
// and a bit-packed word-wise kernel (`BitMatrix`, best on dense matrices).
// `ReduceOptions::use_bitset` selects one; kAuto switches on density.
#pragma once

#include <span>

#include "matrix/sparse_matrix.hpp"
#include "matrix/sub_matrix.hpp"

namespace ucp::cov {

/// Kernel selection for the dominance subset tests.
enum class BitsetMode {
    kAuto,  ///< bit-packed when density ≥ bitset_density_threshold
    kOff,   ///< always the sorted-vector merge (reference path)
    kOn,    ///< always the bit-packed kernel
};

struct ReduceOptions {
    /// Safety valve for the O(n²) dominance passes on huge matrices.
    std::size_t max_dominance_rows = 200000;
    std::size_t max_dominance_cols = 200000;
    /// Dominance kernel choice (see BitsetMode).
    BitsetMode use_bitset = BitsetMode::kAuto;
    /// kAuto threshold: entry density at or above which the bit-packed
    /// kernel is used. Word-wise subset tests cost universe/64 words per
    /// candidate regardless of sparsity, so they only pay off when the
    /// average row holds at least a few elements per word.
    double bitset_density_threshold = 0.02;
};

struct ReduceResult {
    /// Columns (original indices) proven to belong to some optimal completion
    /// — essential columns found during reduction.
    std::vector<Index> essential_cols;
    /// Cost of the essential columns.
    Cost fixed_cost = 0;
    /// The cyclic core (possibly empty: the reductions solved the problem).
    CoverMatrix core;
    /// Maps core column index -> original column index.
    std::vector<Index> core_col_map;
    /// Maps core row index -> original row index.
    std::vector<Index> core_row_map;
    /// Statistics.
    std::size_t rows_removed_dominance = 0;
    std::size_t cols_removed_dominance = 0;
    std::size_t passes = 0;
    /// True when a dominance pass was skipped because the alive matrix
    /// exceeded max_dominance_rows / max_dominance_cols — the "core" may
    /// then still contain dominated rows/columns. Also counted in the
    /// "reduce.dominance_skips" stats counter.
    bool dominance_skipped = false;
    /// True when the bit-packed dominance kernel was used.
    bool used_bitset_kernel = false;

    [[nodiscard]] bool solved() const noexcept { return core.num_rows() == 0; }
};

/// Reduces `m` to its cyclic core. Columns in `fixed` are treated as already
/// chosen: rows they cover are discarded first (they do NOT appear in
/// essential_cols or fixed_cost).
ReduceResult reduce(const CoverMatrix& m, const std::vector<Index>& fixed = {},
                    const ReduceOptions& opt = {});

/// Dirty-queue seeds for reduce_inplace: base indices of rows/columns whose
/// live adjacency shrank since the view was last at a reduction fixpoint.
/// Duplicates are fine (the engine deduplicates).
struct ReduceDirt {
    std::vector<Index> rows;  ///< feed the essential + row-dominance rechecks
    std::vector<Index> cols;  ///< feed the column-dominance rechecks
};

/// Result of an in-place worklist fixpoint. Indices are BASE indices of the
/// view; essential_cols is in discovery order (same order the full-pass
/// reducer reports).
struct InplaceReduceResult {
    std::vector<Index> essential_cols;
    Cost fixed_cost = 0;
    std::size_t rows_removed_dominance = 0;
    std::size_t cols_removed_dominance = 0;
    std::size_t passes = 0;
    bool dominance_skipped = false;
    bool used_bitset_kernel = false;
};

/// Runs the reduction fixpoint directly on a live view, rechecking only the
/// dirtied rows/columns (and whatever they transitively dirty). When the
/// view was at a fixpoint before the changes described by `dirt`, the final
/// alive set is identical to a full re-reduction; seeding every alive
/// row/column reproduces a full reduction outright (that is what reduce()
/// does). Columns left covering no alive row are removed by the
/// column-dominance pass unless max_dominance_cols skips it — callers needing
/// the classical core must sweep them like reduce() does, or call
/// reduce_branch().
/// Charges reduce.passes and the dominance-removal counters like
/// reduce_to_view(), but counts itself in reduce.inplace_calls, not
/// reduce.calls.
InplaceReduceResult reduce_inplace(SubMatrix& view, const ReduceDirt& dirt,
                                   const ReduceOptions& opt = {});

/// The reduce() pipeline stopped before materialisation: `v` is re-targeted
/// at `m`, the fixed columns are applied, the worklist fixpoint runs, and
/// surviving columns that lost every row are swept — so the view's alive set
/// IS the cyclic core (`v.compact()` reproduces `reduce().core` exactly, and
/// `v.num_live_rows() == 0` is the solved() test). Lets per-node callers
/// (the branch-and-bound search) scan or split the core without paying the
/// compacted copy. Counters/spans are charged here, so a reduce() call and a
/// reduce_to_view() call are indistinguishable in the stats roll-up.
InplaceReduceResult reduce_to_view(const CoverMatrix& m, SubMatrix& v,
                                   const std::vector<Index>& fixed = {},
                                   const ReduceOptions& opt = {});

/// One branch of a branch-and-bound node as a live view of the node's
/// branching matrix `parent` (DESIGN.md §11): `v` is re-targeted at
/// `parent`, the `forbidden` columns are removed and column `fixed` is
/// taken. `dirt` receives `stale` (what of `parent` is off its reduction
/// fixpoint), the rows that lost a forbidden column and the columns that
/// lost a row to `fixed`. Returns false when a forbidden column took a
/// row's last column: no cover lies below the branch, and `v` and `dirt`
/// are left unspecified.
bool branch_view(const CoverMatrix& parent, const ReduceDirt& stale,
                 std::span<const Index> forbidden, Index fixed, SubMatrix& v,
                 ReduceDirt& dirt);

/// reduce_inplace() plus reduce_to_view()'s sweep of columns left covering
/// no alive row. After branch_view() on a parent at its reduction fixpoint
/// apart from `stale`, the view's alive set is the branch's cyclic core —
/// the same essentials in the same order, and the same compact() core, as
/// strip_columns() of the forbidden columns followed by
/// reduce_to_view({fixed}) — because on a fixpoint only a row that lost a
/// column can newly dominate or become essential, and only a column that
/// lost a row can newly be dominated.
InplaceReduceResult reduce_branch(SubMatrix& v, const ReduceDirt& dirt,
                                  const ReduceOptions& opt = {});

/// One independent block of a covering matrix (the "partitioning" reduction
/// of the classical literature, paper §2): rows/columns unreachable from one
/// another in the bipartite incidence graph can be solved separately and the
/// solutions concatenated.
struct Partition {
    CoverMatrix matrix;
    std::vector<Index> col_map;  ///< block col -> original col
    std::vector<Index> row_map;  ///< block row -> original row
};

/// Splits `m` into its connected components. Columns covering no row are
/// dropped (they belong to no block and to no optimal solution).
std::vector<Partition> partition_blocks(const CoverMatrix& m);

}  // namespace ucp::cov
