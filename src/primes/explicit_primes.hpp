// Explicit prime-implicant generation by iterated consensus with absorption
// (Quine [20] / McCluskey [17], in Espresso's multi-output cube algebra).
//
// Starting from any cover of the care function (ON ∪ DC with output parts),
// repeatedly adding consensus cubes and removing absorbed (single-cube
// contained) cubes converges to exactly the set of multi-output prime
// implicants. Worst-case exponential — callers bound it with `max_primes`,
// and a budgeted run also with a ConsensusBudget.
#pragma once

#include <cstddef>
#include <limits>

#include "pla/cover.hpp"

namespace ucp::primes {

struct ConsensusStats {
    std::size_t consensus_attempts = 0;
    std::size_t cubes_added = 0;
    std::size_t cubes_absorbed = 0;  ///< live cubes a newer cube contained
    std::size_t containment_checks = 0;  ///< cubes compared by the insert scans
    std::size_t passes = 0;
};

/// Work limits of a budgeted run.
struct ConsensusBudget {
    /// Limit on cubes_absorbed, checked at each insert.
    std::size_t max_absorbed = std::numeric_limits<std::size_t>::max();
    /// Limit on consensus_attempts + containment_checks, checked at each
    /// insert and once per frontier cube of the pair loop: a function whose
    /// cubes have no consensus still pays one attempt per pair.
    std::size_t max_checks = std::numeric_limits<std::size_t>::max();
};

/// Computes all prime implicants of the function covered by `care`
/// (multi-output; for input-only covers pass a cover with m == 0).
/// Throws ResourceError(Status::kNodeBudget) if more than `max_primes` cubes
/// are generated or the run exceeds `budget`. `stats`, if given, receives the
/// counts of this run, also when it throws.
pla::Cover primes_by_consensus(const pla::Cover& care,
                               std::size_t max_primes = 2'000'000,
                               ConsensusStats* stats = nullptr,
                               const ConsensusBudget& budget = {});

/// The classical Quine–McCluskey tabular method [17]: expand the care
/// function to minterms, group by the number of asserted inputs, and merge
/// adjacent groups level by level; unmerged cubes are the primes. Exact for
/// single-output functions with up to ~20 inputs (minterm expansion!);
/// implemented as an independently-derived oracle for the consensus and
/// implicit generators. Requires an input-only cover (m == 0).
pla::Cover primes_by_tabular(const pla::Cover& care,
                             std::size_t max_minterms = 1u << 20);

}  // namespace ucp::primes
