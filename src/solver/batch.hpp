// Cross-instance batching for the explicit phase.
//
// A BatchSolver is a parallel map of solve_one() over B independent covering
// instances (parallel_map in util/thread_pool.hpp): each item is reduced to
// its cyclic core, the core is solved with SCG, and the core solution is
// lifted back to original column indices. It buys nothing over a plain loop
// on one thread and scales with worker threads like any fan-out (measured
// 0.93–1.07× a solve_one loop on 1 thread, 2.0–3.0× on 4; bench_batch).
//
// Determinism: every item is solved independently from its own instance and
// the shared options into its own slot, so the output is bit-identical for
// every thread count: BatchSolver::solve(batch).items[i] equals
// solve_one(*batch[i], opt) field for field.
#pragma once

#include <vector>

#include "solver/scg.hpp"

namespace ucp::solver {

struct BatchOptions {
    /// Solver options applied to every core. `scg.governor` must stay null:
    /// a shared budget across concurrently solved instances would make
    /// results depend on scheduling.
    ScgOptions scg{};
    /// Worker threads for the fan-out. ≤ 0 = ThreadPool::default_threads()
    /// (UCP_THREADS env or hardware), 1 = inline serial execution.
    int num_threads = 1;
    /// Per-instance memory sub-cap in bytes (0 = no per-item cap). Each
    /// instance charges its cyclic core against its own child MemoryBudget
    /// parented to the process accountant, so exhaustion degrades that one
    /// item to the greedy cover (status kResourceExhausted) and leaves the
    /// rest of the batch untouched.
    std::size_t mem_budget_per_item = 0;
};

struct BatchItem {
    std::vector<cov::Index> solution;  ///< original column indices, feasible
    cov::Cost cost = 0;                ///< essential fixed cost + core cost
    cov::Cost lower_bound = 0;
    bool proved_optimal = false;
    cov::Index core_rows = 0, core_cols = 0;  ///< cyclic core shape
    int scg_runs = 0;                  ///< 0 when reductions solved it outright
    double reduce_seconds = 0.0;
    double solve_seconds = 0.0;
    /// kOk, or the trip that degraded this item (kResourceExhausted → the
    /// solution is the greedy anytime cover, still feasible).
    Status status = Status::kOk;
};

struct BatchResult {
    std::vector<BatchItem> items;  ///< one per instance, input order
    double seconds = 0.0;          ///< wall time of the whole batch
};

class BatchSolver {
public:
    explicit BatchSolver(BatchOptions opt = {});

    /// Solves every instance; `batch[i]` must stay valid for the call.
    [[nodiscard]] BatchResult solve(
        const std::vector<const cov::CoverMatrix*>& batch) const;
    [[nodiscard]] BatchResult solve(
        const std::vector<cov::CoverMatrix>& batch) const;

    /// One instance: reduce, solve the core, lift — the function solve()
    /// maps over the batch.
    [[nodiscard]] static BatchItem solve_one(const cov::CoverMatrix& m,
                                             const BatchOptions& opt);

private:
    BatchOptions opt_;
};

}  // namespace ucp::solver
