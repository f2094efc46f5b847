// In-place live view over a CoverMatrix: alive-row/col masks plus live-degree
// counters. The SCG fixing loop and the reduction engine mutate this view
// (kill rows, remove/fix columns) instead of materialising a compacted
// CoverMatrix after every step; compaction happens only when the live
// fraction drops below a threshold (kCompactLiveFraction in solver/scg.cpp).
//
// Index space: the view keeps the BASE indices. Algorithms iterate the base
// ranges and skip dead slots via row_alive()/col_alive(); because the
// base→compact renumbering is monotone, iterating alive base indices in
// ascending order visits exactly the same elements in exactly the same order
// as iterating a compacted matrix — which is what keeps the Lagrangian
// engine's floating-point results bit-identical between the two
// representations (see DESIGN.md §7).
#pragma once

#include <vector>

#include "matrix/sparse_matrix.hpp"

namespace ucp::cov {

class SubMatrix {
public:
    SubMatrix() = default;
    explicit SubMatrix(const CoverMatrix& base) { reset(base); }

    /// Re-targets the view at `base` with everything alive.
    void reset(const CoverMatrix& base);
    /// Re-points the view at a moved/copied base of identical shape (the
    /// alive masks and counters are kept). Used when the owning struct is
    /// copied and the base matrix lives inside it.
    void rebind(const CoverMatrix* base) { base_ = base; }

    [[nodiscard]] const CoverMatrix& base() const { return *base_; }

    // ---- CoverMatrix-compatible interface (BASE dims / BASE spans) -------------
    [[nodiscard]] Index num_rows() const { return base_->num_rows(); }
    [[nodiscard]] Index num_cols() const { return base_->num_cols(); }
    [[nodiscard]] IndexSpan row(Index i) const { return base_->row(i); }
    [[nodiscard]] IndexSpan col(Index j) const { return base_->col(j); }
    [[nodiscard]] Cost cost(Index j) const { return base_->cost(j); }

    [[nodiscard]] bool row_alive(Index i) const { return row_alive_[i] != 0; }
    [[nodiscard]] bool col_alive(Index j) const { return col_alive_[j] != 0; }
    /// Byte masks for the kern:: sparse-ops layer (0 = dead, 1 = alive).
    [[nodiscard]] const char* row_alive_data() const noexcept {
        return row_alive_.data();
    }
    [[nodiscard]] const char* col_alive_data() const noexcept {
        return col_alive_.data();
    }
    [[nodiscard]] Index num_live_rows() const noexcept { return live_rows_; }
    [[nodiscard]] Index num_live_cols() const noexcept { return live_cols_; }
    /// Number of alive columns in row i / alive rows in column j — the sizes
    /// a compacted matrix would report. Maintained incrementally, O(1).
    [[nodiscard]] Index live_row_size(Index i) const { return row_len_[i]; }
    [[nodiscard]] Index live_col_size(Index j) const { return col_len_[j]; }
    /// Dense live-degree arrays for the kern:: integer sweep kernels.
    [[nodiscard]] const Index* live_row_size_data() const noexcept {
        return row_len_.data();
    }
    [[nodiscard]] const Index* live_col_size_data() const noexcept {
        return col_len_.data();
    }

    /// min(live rows / rows, live cols / cols); 1.0 for an empty base.
    [[nodiscard]] double live_fraction() const noexcept;

    // ---- mutations (engine primitives) -----------------------------------------
    /// Kills row i. Calls `on_col(j)` for every alive column j that lost the
    /// row (its live_col_size already decremented).
    template <class OnCol>
    void kill_row(Index i, OnCol on_col) {
        UCP_ASSERT(row_alive_[i] != 0);
        row_alive_[i] = 0;
        --live_rows_;
        for (const Index j : base_->row(i)) {
            if (col_alive_[j] == 0) continue;
            --col_len_[j];
            on_col(j);
        }
    }

    /// Removes column j without touching rows. Calls `on_row(i)` for every
    /// alive row i that lost the column (its live_row_size already
    /// decremented — a result of 0 means the restricted problem is
    /// infeasible and the caller must abandon the path).
    template <class OnRow>
    void remove_col(Index j, OnRow on_row) {
        UCP_ASSERT(col_alive_[j] != 0);
        col_alive_[j] = 0;
        --live_cols_;
        for (const Index i : base_->col(j)) {
            if (row_alive_[i] == 0) continue;
            --row_len_[i];
            on_row(i);
        }
    }

    /// Takes column j into the solution: the column dies and every row it
    /// covers dies with it. `on_row_killed(i)` fires per covered row,
    /// `on_col_touched(i, j2)` per (killed row, surviving column) pair.
    template <class OnRowKilled, class OnColTouched>
    void fix_col(Index j, OnRowKilled on_row_killed, OnColTouched on_col_touched) {
        UCP_ASSERT(col_alive_[j] != 0);
        col_alive_[j] = 0;
        --live_cols_;
        for (const Index i : base_->col(j)) {
            if (row_alive_[i] == 0) continue;
            on_row_killed(i);
            kill_row(i, [&](Index j2) { on_col_touched(i, j2); });
        }
    }

    /// Drops a column no alive row references (live_col_size == 0). Used by
    /// the core-extraction sweep; asserts the precondition.
    void drop_dead_col(Index j) {
        UCP_ASSERT(col_alive_[j] != 0 && col_len_[j] == 0);
        col_alive_[j] = 0;
        --live_cols_;
    }

    // ---- solution helpers (compact-matrix semantics on base indices) -----------
    [[nodiscard]] bool is_feasible(const std::vector<Index>& solution) const;
    [[nodiscard]] Cost solution_cost(const std::vector<Index>& solution) const;
    [[nodiscard]] std::vector<Index> make_irredundant(
        std::vector<Index> solution) const;

    /// Materialises the live sub-problem as a compact CoverMatrix; fills the
    /// dense remaps (compact index → base index). Produces exactly the matrix
    /// the classical strip/reduce pipeline would have built.
    [[nodiscard]] CoverMatrix compact(std::vector<Index>& col_map,
                                      std::vector<Index>& row_map) const;

    /// Debug check: live counters consistent with the masks.
    void validate() const;

    /// Reserved footprint in bytes of the view masks/counters (memory-budget
    /// accounting; the base matrix is charged by its own holder).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return (row_alive_.capacity() + col_alive_.capacity()) * sizeof(char) +
               (row_len_.capacity() + col_len_.capacity()) * sizeof(Index);
    }

private:
    const CoverMatrix* base_ = nullptr;
    std::vector<char> row_alive_, col_alive_;
    std::vector<Index> row_len_, col_len_;
    Index live_rows_ = 0, live_cols_ = 0;
};

}  // namespace ucp::cov
