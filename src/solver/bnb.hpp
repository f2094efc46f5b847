// Exact branch-and-bound unate-covering solver — our stand-in for Scherzo
// [10] / Aura [14] in the Table 3–4 comparisons, and the optimality oracle in
// the tests.
//
// Structure (mincov-style):
//   * at every node, reduce to the cyclic core (essentials + dominance);
//   * prune with a lower bound: MIS (the classical choice), dual ascent, or
//     the Lagrangian bound (paper §3.4's stronger options);
//   * apply the limit-bound theorem to discard columns (Theorem 2);
//   * branch on the columns of a shortest row (complete n-ary branching).
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/sparse_matrix.hpp"
#include "util/budget.hpp"

namespace ucp::solver {

enum class BnbBound {
    kMis,            ///< maximal-independent-set bound (classical VLSI choice)
    kDualAscent,     ///< heuristic dual solution (Liao–Devadas fast mode [15])
    kLagrangian,     ///< subgradient-tightened Lagrangian bound (paper §3.2)
    kLp,             ///< exact linear relaxation ⌈z*_P⌉ (Liao–Devadas [15])
    kIncrementalMis, ///< MIS strengthened by solving a grown row-subset
                     ///< exactly (Goldberg et al. / Aura [14])
};

struct BnbOptions {
    BnbBound bound = BnbBound::kDualAscent;
    bool use_limit_bound = true;
    std::size_t max_nodes = 50'000'000;
    /// Optional resource governor, charged one iteration per expanded node —
    /// the only way to bound the search's wall time
    /// (BudgetOptions::deadline_seconds). A trip truncates the search exactly
    /// like max_nodes: the incumbent and root bound stay valid, `optimal` is
    /// false, and BnbResult::status reports the trip. Not owned; nullptr =
    /// ungoverned. With more than one worker every subtask runs under a
    /// fork() of this governor (shared cancel token and absolute deadline,
    /// per-subtask iteration counters), so all workers observe
    /// deadline/cancel cooperatively.
    Budget* governor = nullptr;
    // ---- decomposition-parallel search (DESIGN.md §11) ----------------------
    /// Detect independent blocks of the cyclic core — at the root and again
    /// at every expanded node — and solve them as separate subproblems with
    /// per-block bounds (the partitioning reduction of paper §2, applied
    /// dynamically).
    bool decompose = true;
    /// Worker threads for the top-level block search. 1 = fully sequential
    /// (the deterministic reference execution), ≤ 0 = ThreadPool::
    /// default_threads() (honours UCP_THREADS). The optimal cost is
    /// bit-identical across thread counts; only the tie choice among equal-
    /// cost covers, node counts and trip points may differ.
    int num_threads = 1;
    /// Small-core cutoff: cores with fewer live rows skip the per-node
    /// component scan, and blocks smaller than this are never root-split
    /// into branch subtasks — tiny cores are cheaper to finish than to
    /// decompose.
    cov::Index parallel_min_rows = 8;
    /// Optional warm incumbent (original column indices). Checked for
    /// feasibility, made irredundant, and adopted when it beats the greedy
    /// baseline, so the search starts with a tighter pruning threshold — the
    /// cross-seeding hook the portfolio uses to hand an RWLS upper bound to
    /// the exact solver. Exactness is unaffected (any feasible cover is a
    /// valid incumbent); ignored when empty or infeasible.
    std::vector<cov::Index> warm_solution{};
};

/// The Aura-flavoured bound [14]: the optimum of the sub-problem induced by
/// the MIS rows plus up to `extra_rows` more (solved exactly with a small
/// node budget) is a valid lower bound for the full problem and dominates
/// the plain MIS bound. Exposed for the bound-comparison experiments.
cov::Cost incremental_mis_bound(const cov::CoverMatrix& m, int extra_rows = 6);

struct BnbResult {
    std::vector<cov::Index> solution;
    cov::Cost cost = 0;
    cov::Cost lower_bound = 0;  ///< equals cost when optimal
    bool optimal = false;
    std::size_t nodes = 0;
    double seconds = 0.0;
    /// Independent blocks of the root cyclic core (1 = no decomposition;
    /// 0 = solved by the root reductions alone).
    std::size_t blocks = 0;
    /// kOk, or the governor trip that truncated the search.
    Status status = Status::kOk;
};

BnbResult solve_exact(const cov::CoverMatrix& m, const BnbOptions& opt = {});

}  // namespace ucp::solver
