// The implicit phase of ZDD_SCG (Fig. 2, Encode + ZDD_Reductions + Decode):
// builds the prime-vs-minterm covering table of a two-level function without
// ever enumerating minterms individually.
//
//  * Columns are the multi-output prime implicants (primes module).
//  * The on-set minterms of each output are kept as a ZDD in the minterm
//    encoding (one ZDD var per input).
//  * Rows are *signature classes*: minterms covered by exactly the same set
//    of primes are one row (this subsumes duplicate-row removal and is how
//    the implicit phase keeps the decoded matrix small). The classes are
//    computed by ZDD partition refinement — intersect/difference against each
//    prime's minterm set — so the row side stays implicit until Decode.
//  * Primes covering a singleton-signature class are essential (detected here
//    for the statistics; the explicit reducer re-derives them).
//
// The decoded sparse matrix (unit costs: the paper's primary objective is the
// number of products) is then handed to the explicit reductions + SCG.
#pragma once

#include <cstdint>

#include "matrix/sparse_matrix.hpp"
#include "pla/pla_io.hpp"
#include "zdd/zdd.hpp"

namespace ucp::cover {

/// How the primes are generated. Every method gives the same primes in the
/// same order (the implicit generator's), so the columns do not depend on it.
enum class PrimeMethod {
    kAuto,       ///< consensus under a work budget; a function that exceeds it
                 ///< goes to kImplicit, whose node-budget trips fall back to
                 ///< unbudgeted consensus
    kConsensus,  ///< explicit iterated consensus, unbudgeted
    kImplicit,   ///< Coudert–Madre implicit primes of h(x, y), any output count
};

/// How the signature-class rows are computed. kAuto runs the ZDD partition
/// refinement and, if a governed node budget trips mid-flight
/// (ResourceError with Status::kNodeBudget), abandons it and falls back to
/// the explicit minterm-enumeration path — recording the switch in the
/// "budget.zdd_fallbacks" stats counter. Both paths produce the identical
/// matrix (same rows in the same order), so the fallback changes wall-clock
/// and memory shape, never the answer.
enum class RowMethod {
    kAuto,      ///< implicit with graceful explicit fallback
    kImplicit,  ///< ZDD partition refinement only (trips propagate)
    kExplicit,  ///< explicit minterm enumeration only (no ZDD use)
};

[[nodiscard]] inline const char* to_string(PrimeMethod m) noexcept {
    return m == PrimeMethod::kConsensus ? "consensus"
           : m == PrimeMethod::kImplicit ? "implicit"
                                         : "auto";
}
[[nodiscard]] inline const char* to_string(RowMethod m) noexcept {
    return m == RowMethod::kImplicit ? "implicit"
           : m == RowMethod::kExplicit ? "explicit"
                                       : "auto";
}

/// Column-cost model. The paper's primary objective is the number of
/// products "with only a secondary concern given to the number of literals"
/// (§5) — the lexicographic model encodes that as W·1 + literals with W
/// larger than any achievable literal total.
enum class CostModel {
    kProducts,              ///< unit costs (the paper's tables)
    kProductsThenLiterals,  ///< lexicographic (products, then literals)
    kLiterals,              ///< pure literal count
};

struct TableBuildOptions {
    PrimeMethod method = PrimeMethod::kAuto;
    RowMethod row_method = RowMethod::kAuto;
    CostModel cost_model = CostModel::kProducts;
    /// Guard corresponding to the paper's MaxR/MaxC decode thresholds; the
    /// builder aborts (throws) if the signature classes exceed this.
    std::size_t max_rows = 50'000;
    std::size_t max_cols = 50'000;
    /// Tuning for the internal ZDD/BDD managers (computed-cache size, GC
    /// threshold). Exposed on the CLI as --zdd-cache-entries /
    /// --zdd-gc-threshold; see README.
    zdd::DdOptions dd{};
};

struct CoveringTable {
    pla::Cover primes;       ///< the columns (multi-output prime implicants)
    cov::CoverMatrix matrix; ///< rows = signature classes, unit costs
    std::size_t num_essential_primes = 0;  ///< singleton-signature classes
    double onset_minterms = 0.0;  ///< Σ_k |U_k| — the uncollapsed row count
    double build_seconds = 0.0;
    double prime_seconds = 0.0;
    /// The generator that produced the primes and the path that built the
    /// rows (kAuto: none ran, e.g. no rows for an empty on-set).
    PrimeMethod prime_method = PrimeMethod::kAuto;
    RowMethod row_method = RowMethod::kAuto;

    /// matrix column j corresponds to primes[ column_prime[j] ].
    std::vector<cov::Index> column_prime;

    /// For CostModel::kProductsThenLiterals: matrix cost = weight_scale·1 +
    /// literal count, so ⌊weighted / weight_scale⌋ recovers the product
    /// count. 1 for the other models.
    cov::Cost weight_scale = 1;
};

/// Builds the covering table for the PLA's care function.
/// Rows are the ON-set points only (don't-cares need not be covered);
/// primes are primes of ON ∪ DC. Resource trips surface as ResourceError
/// (Status::kNodeBudget for the MaxR/MaxC guards and governed node budgets,
/// kDeadline/kCancelled from the governor in opt.dd); bad input as
/// BadInputError. Under PrimeMethod/RowMethod kAuto a governed node-budget
/// trip degrades gracefully to the explicit (consensus primes + minterm
/// enumeration) path instead of failing; both paths build the same matrix.
/// The prime cap (200,000) is a node-budget trip too.
CoveringTable build_covering_table(const pla::Pla& pla,
                                   const TableBuildOptions& opt = {});

/// The generic implicit-phase core: the covering matrix of an arbitrary
/// candidate column cover against the PLA's care on-set (signature-class
/// rows, unit costs). Columns that cover no care on-set point get empty
/// column supports. Throws std::invalid_argument if `columns` does not cover
/// the whole on-set. Used by build_covering_table (columns = primes) and by
/// the exact IRREDUNDANT step of the Espresso strong mode (columns = the
/// current cover's cubes).
struct OnsetMatrix {
    cov::CoverMatrix matrix;
    double onset_minterms = 0.0;
    std::size_t essential_columns = 0;  ///< singleton-signature classes
    RowMethod row_method = RowMethod::kImplicit;  ///< the path that ran
};
OnsetMatrix onset_covering_matrix(const pla::Pla& pla,
                                  const pla::Cover& columns,
                                  std::size_t max_rows = 50'000,
                                  const zdd::DdOptions& dd = {},
                                  RowMethod method = RowMethod::kAuto);

/// Converts a covering-matrix solution (matrix column indices) back to a
/// two-level cover (subset of `table.primes`).
pla::Cover solution_to_cover(const CoveringTable& table,
                             const std::vector<cov::Index>& solution);

}  // namespace ucp::cover
