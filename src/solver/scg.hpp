// The paper's algorithm: SCG (subgradient-driven constructive greedy), the
// explicit phase of ZDD_SCG (Fig. 2).
//
// Outer loop: NumIter runs. Each run starts from the saved exact cyclic core
// and repeatedly
//   1. runs SubgradientAscent → (λ, µ, LB, incumbent);
//   2. applies the Lagrangian and dual penalty tests (§3.6) to fix/remove
//      columns;
//   3. adds the "promising" columns (c̃_j ≤ ĉ and µ_j ≥ µ̂, §3.7);
//   4. rates the rest with σ = c̃ − α·µ and fixes one more column — the best
//      one in run 1, a random one of the best `BestCol` in later runs;
//   5. re-reduces the matrix to a fixed point;
// until the matrix empties or the local bound proves no improvement is
// possible. The incumbent is made irredundant at the end of each run.
// BestCol grows from run to run to widen the explored region (§4).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "lagrangian/subgradient.hpp"
#include "matrix/sparse_matrix.hpp"

namespace ucp::solver {

struct ScgOptions {
    int num_iter = 4;          ///< NumIter: number of constructive runs
    double alpha = 2.0;        ///< σ = c̃ − α·µ (paper: α = 2)
    double c_hat = 0.001;      ///< promising-column threshold on c̃
    double mu_hat = 0.999;     ///< promising-column threshold on µ
    bool use_lagrangian_penalties = true;
    bool use_dual_penalties = true;
    std::uint64_t seed = 0x5eed;
    /// Independent stochastic multi-starts (embarrassingly parallel). Start s
    /// uses stream_seed(seed, s) (util/rng.hpp) — start 0 is `seed` verbatim,
    /// so num_starts = 1 reproduces the classic single-descent solver.
    /// Results reduce deterministically: best cost, ties broken by lowest
    /// start index, so the answer is bit-identical for every num_threads
    /// value.
    int num_starts = 1;
    /// Worker threads for the multi-start fan-out. ≤ 0 = auto
    /// (default_threads(): UCP_THREADS env or hardware);
    /// 1 = serial. Has no effect when num_starts ≤ 1.
    int num_threads = 1;
    lagr::SubgradientOptions subgradient{};
    /// Optional resource governor — the only way to bound the solve's wall
    /// time (BudgetOptions::deadline_seconds), cancel it or cap iterations.
    /// Polled between fixing steps and charged per subgradient iteration; a
    /// trip ends the solve with the best-so-far incumbent and bound, reported
    /// through ScgResult::status. Multi-starts each run on a fork of this
    /// budget (shared deadline + cancel token, private fault/iteration
    /// counters) so fault injection trips deterministically regardless of
    /// num_threads. Not owned; nullptr = ungoverned.
    Budget* governor = nullptr;
    /// Optional progress log (one line per subgradient phase / run).
    /// Ignored by the parallel starts (s > 0) to keep output deterministic.
    std::ostream* log = nullptr;
};

struct ScgResult {
    std::vector<cov::Index> solution;  ///< original column indices, irredundant
    cov::Cost cost = 0;
    cov::Cost lower_bound = 0;       ///< best global Lagrangian bound, ⌈·⌉
    bool proved_optimal = false;     ///< cost == lower_bound
    int runs_executed = 0;
    int run_of_best = 0;             ///< the run (1-based) that found `solution`
    int starts_executed = 0;         ///< multi-starts actually run (≥ 1)
    int start_of_best = 0;           ///< the start (0-based) that found `solution`
    std::size_t subgradient_calls = 0;
    double seconds = 0.0;
    /// kOk, or the governor trip that ended the solve early. The solution is
    /// feasible and lower_bound valid either way (anytime contract).
    Status status = Status::kOk;
};

/// Solves the unate covering problem heuristically with the SCG scheme.
ScgResult solve_scg(const cov::CoverMatrix& m, const ScgOptions& opt = {});

}  // namespace ucp::solver
