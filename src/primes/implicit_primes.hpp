// Implicit prime-implicant generation via the Coudert–Madre recursion [12]:
// the function is built as a BDD from its care cover, and the set of prime
// cubes is produced directly as a ZDD in the literal encoding (zdd_cubes.hpp)
// without ever enumerating implicants.
//
//   Primes(0) = ∅,  Primes(1) = {tautology cube}
//   Primes(f) = Primes(f0·f1)
//             ∪ x̄·(Primes(f0) − Primes(f0·f1))
//             ∪ x·(Primes(f1) − Primes(f0·f1))
//
// where f0/f1 are the cofactors on f's top variable x. An m-output function
// f_0..f_{m-1} of n inputs becomes one function of n + m variables,
// h(x, y) = ∧_k (y_k ∨ f_k(x)) with y_k = variable n + k below the inputs.
// h is positive unate in y, and its primes other than the all-y cube are the
// multi-output primes: output k is asserted iff the literal y_k is absent.
#pragma once

#include "pla/cover.hpp"
#include "zdd/bdd.hpp"
#include "zdd/zdd.hpp"

namespace ucp::primes {

struct ImplicitPrimeResult {
    zdd::Zdd primes;           ///< ZDD over 2(n + m) literal variables
    double prime_count = 0;    ///< |primes|
    std::size_t zdd_nodes = 0; ///< size of the result ZDD
    std::size_t bdd_nodes = 0; ///< size of the function BDD
};

/// Builds the BDD of an input-only cover (disjunction of its cubes).
zdd::BddId cover_to_bdd(zdd::BddManager& bmgr, const pla::Cover& cover);

/// Primes of the function given by `care`: of h(x, y) for m ≥ 1 outputs, less
/// the all-y cube, and of the input-only cover itself for m = 0. `zmgr` must
/// have at least 2(n + m) variables. `dd` tunes the internal BDD's manager.
ImplicitPrimeResult implicit_primes(zdd::ZddManager& zmgr,
                                    const pla::Cover& care,
                                    const zdd::DdOptions& dd = {});

/// Decodes a literal-encoded prime ZDD into a cover of `num_inputs` inputs
/// and `num_outputs` outputs (output k asserted iff y_k is absent), in the
/// ZDD's emission order.
pla::Cover primes_zdd_to_cover(const zdd::ZddManager& zmgr, const zdd::Zdd& primes,
                               std::uint32_t num_inputs,
                               std::uint32_t num_outputs = 0);

}  // namespace ucp::primes
