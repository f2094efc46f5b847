// End-to-end two-level minimisation driver: the ZDD_SCG pipeline of Fig. 2.
//
//   PLA  →  primes + implicit covering table (cover/table_builder)
//        →  explicit reductions to the cyclic core (matrix/reductions)
//        →  SCG / exact / greedy covering solver
//        →  minimised cover  (+ URP functional-equivalence verification)
//
// The timings reported match the paper's table columns: `cyclic_core_seconds`
// is the implicit+decode phase (CC(s)), `total_seconds` is T(s).
#pragma once

#include "cover/table_builder.hpp"
#include "solver/bnb.hpp"
#include "solver/scg.hpp"

namespace ucp::solver {

enum class CoverSolver {
    kScg,           ///< the paper's algorithm
    kGreedy,        ///< Chvátal greedy (baseline)
    kExact,         ///< branch-and-bound (Scherzo stand-in)
    kImplicitExact, ///< ZDD enumeration of all minimal covers (small cores)
};

struct TwoLevelOptions {
    cover::TableBuildOptions table{};
    CoverSolver cover_solver = CoverSolver::kScg;
    ScgOptions scg{};
    BnbOptions bnb{};
    /// Resource limits for the whole pipeline. minimize_two_level constructs
    /// one Budget from these and threads it through the table build, the DD
    /// managers and the covering solver. A node-budget trip silently degrades
    /// the implicit phase to the explicit path ("budget.zdd_fallbacks"
    /// counter); a deadline/cancel trip ends the solve with the best-so-far
    /// feasible cover and bound, reported via TwoLevelResult::status.
    BudgetOptions budget{};
    /// Optional cooperative cancellation (e.g. a SIGINT handler). Not owned.
    CancelToken* cancel = nullptr;
};

struct TwoLevelResult {
    pla::Cover cover;  ///< the minimised multi-output cover
    cov::Cost cost = 0;               ///< number of products (primary cost)
    std::size_t literals = 0;         ///< secondary cost
    cov::Cost lower_bound = 0;        ///< on the number of products
    /// Raw solver-side values under the table's cost model (equal to
    /// cost / lower_bound for CostModel::kProducts).
    cov::Cost weighted_cost = 0;
    cov::Cost weighted_lower_bound = 0;
    bool proved_optimal = false;
    /// URP equivalence check of the cover against the specification
    /// (ON ≤ cover + DC and cover ≤ ON + DC); every solve runs it.
    bool verified = false;
    std::size_t num_primes = 0;
    std::size_t num_rows = 0;         ///< signature classes (decoded rows)
    double onset_minterms = 0.0;
    double cyclic_core_seconds = 0.0; ///< CC(s): implicit phase + decode
    double total_seconds = 0.0;       ///< T(s)
    int run_of_best = 0;              ///< SCG restart that found the solution
    /// kOk for a complete solve; kDeadline/kCancelled when a budget trip made
    /// this an anytime result. The cover is feasible and lower_bound valid in
    /// either case — except after a trip inside the table build, where no
    /// cover exists yet and the result is empty (cost 0, verified false).
    Status status = Status::kOk;
};

TwoLevelResult minimize_two_level(const pla::Pla& pla,
                                  const TwoLevelOptions& opt = {});

/// Checks that `cover` equals the PLA's function modulo don't-cares:
/// every ON point is covered, and the cover asserts no OFF point.
bool verify_equivalence(const pla::Pla& pla, const pla::Cover& cover);

}  // namespace ucp::solver
