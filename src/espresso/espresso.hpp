// An Espresso-style heuristic two-level minimiser (Brayton et al. [3]) — the
// baseline the paper compares against in Tables 1–2 ("Espresso" normal and
// "Espr. Strong" modes).
//
// The classical loop on a multi-output cover F with don't-care cover D and
// per-output off-sets R_k:
//   EXPAND      — grow each cube into a prime against the blocking off-set;
//   IRREDUNDANT — drop cubes covered by the rest of the cover ∪ D;
//   REDUCE      — shrink each cube to the smallest cube still needed,
//                 unblocking the next EXPAND;
// iterated until the (cube count, literal count) cost stops improving.
// Strong mode adds LAST_GASP: maximal independent reductions are re-expanded
// with a different literal order to discover primes the main loop missed.
#pragma once

#include <vector>

#include "pla/pla_io.hpp"
#include "pla/urp.hpp"

namespace ucp::esp {

struct EspressoOptions {
    /// Enable LAST_GASP + extra iterations, and replace the greedy
    /// IRREDUNDANT of small covers by an exact minimum-subset selection
    /// (covering problem solved by branch-and-bound).
    bool strong = false;
};

struct EspressoResult {
    pla::Cover cover;       ///< minimised multi-output cover
    int loops = 0;          ///< EXPAND/IRREDUNDANT/REDUCE iterations executed
    std::size_t initial_cubes = 0;
    std::size_t final_cubes = 0;
    double seconds = 0.0;
};

/// Per-output off-sets R_k = ¬(ON_k ∪ DC_k), as input-only covers.
std::vector<pla::Cover> compute_offsets(const pla::Pla& pla);

/// EXPAND: every cube of f is grown to a (multi-output) prime. `order_seed`
/// varies the literal-raising order (used by LAST_GASP); 0 = default order.
pla::Cover expand(const pla::Cover& f, const std::vector<pla::Cover>& offsets,
                  unsigned order_seed = 0);

/// IRREDUNDANT: greedy removal of cubes covered by (f − cube) ∪ dc.
pla::Cover irredundant(const pla::Cover& f, const pla::Cover& dc);

/// Exact IRREDUNDANT: the minimum-cardinality subset of f still covering the
/// PLA's care on-set, found by solving the (f-cubes vs onset) covering
/// problem exactly. Falls back to returning f on solver truncation.
pla::Cover irredundant_exact(const pla::Cover& f, const pla::Pla& pla);

/// REDUCE: shrink each cube to the smallest cube covering the points no other
/// cube (nor dc) covers; drops fully redundant cubes and prunable outputs.
pla::Cover reduce_cover(const pla::Cover& f, const pla::Cover& dc);

/// The full minimiser.
EspressoResult espresso(const pla::Pla& pla, const EspressoOptions& opt = {});

}  // namespace ucp::esp
