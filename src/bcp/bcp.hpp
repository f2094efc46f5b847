// Binate Covering Problem (BCP) — the generalisation of unate covering the
// paper's introduction situates its work within (survey: Villa et al. [23]).
//
//   min c'x   s.t. every row (clause) is satisfied:
//             ∨_{j ∈ P_i} x_j  ∨  ∨_{j ∈ N_i} ¬x_j,     x ∈ {0,1}^|P|
//
// UCP is the special case N_i = ∅ for all rows. Unlike UCP, a BCP can be
// infeasible. The module provides:
//   * the clause matrix with unit propagation;
//   * reductions: unit clauses (essentials / unacceptables), clause
//     (row) dominance, pure-literal elimination for cost-free phases;
//   * an exact branch-and-bound with a positive-clause MIS lower bound;
// all validated against exhaustive search in the tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "matrix/sparse_matrix.hpp"

namespace ucp::bcp {

using cov::Cost;
using cov::Index;

/// A column literal inside a clause.
struct Literal {
    Index col = 0;
    bool positive = true;

    friend bool operator==(const Literal&, const Literal&) = default;
    friend auto operator<=>(const Literal&, const Literal&) = default;
};

class BcpMatrix {
public:
    BcpMatrix() = default;

    /// Builds from per-row literal lists. Duplicate literals collapse; a row
    /// containing both phases of a column is a tautology and is dropped.
    static BcpMatrix from_rows(Index num_cols,
                               std::vector<std::vector<Literal>> rows,
                               std::vector<Cost> costs = {});

    /// Lifts a unate covering matrix (all literals positive).
    static BcpMatrix from_unate(const cov::CoverMatrix& m);

    [[nodiscard]] Index num_rows() const noexcept {
        return static_cast<Index>(rows_.size());
    }
    [[nodiscard]] Index num_cols() const noexcept {
        return static_cast<Index>(costs_.size());
    }
    [[nodiscard]] const std::vector<Literal>& row(Index i) const {
        return rows_[i];
    }
    [[nodiscard]] Cost cost(Index j) const { return costs_[j]; }
    [[nodiscard]] const std::vector<Cost>& costs() const noexcept {
        return costs_;
    }

    /// Is the clause satisfied by the full 0/1 assignment?
    [[nodiscard]] bool row_satisfied(Index i,
                                     const std::vector<bool>& x) const;
    /// Are all clauses satisfied?
    [[nodiscard]] bool is_feasible(const std::vector<bool>& x) const;
    [[nodiscard]] Cost assignment_cost(const std::vector<bool>& x) const;

private:
    std::vector<std::vector<Literal>> rows_;
    std::vector<Cost> costs_;
};

struct BcpOptions {
    std::size_t max_nodes = 20'000'000;
    bool use_row_dominance = true;
};

struct BcpResult {
    bool feasible = false;
    bool optimal = false;          ///< search completed (vs budget truncation)
    std::vector<bool> assignment;  ///< defined when feasible
    Cost cost = 0;
    Cost lower_bound = 0;
    std::size_t nodes = 0;
    double seconds = 0.0;
};

/// Exact branch-and-bound BCP solver.
BcpResult solve_bcp(const BcpMatrix& m, const BcpOptions& opt = {});

/// Lower bound from the positive-only clauses: pairwise column-disjoint
/// positive clauses each force at least their cheapest positive column
/// (negative literals can always be satisfied for free elsewhere, so only
/// all-positive clauses contribute).
Cost positive_mis_bound(const BcpMatrix& m);

}  // namespace ucp::bcp
