#include "solver/batch.hpp"

#include <algorithm>
#include <optional>

#include "matrix/reductions.hpp"
#include "solver/greedy.hpp"
#include "util/mem_budget.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ucp::solver {

using cov::CoverMatrix;
using cov::Index;

BatchSolver::BatchSolver(BatchOptions opt) : opt_(std::move(opt)) {
    UCP_REQUIRE(opt_.scg.governor == nullptr,
                "BatchSolver: per-batch governors are not supported");
}

BatchResult BatchSolver::solve(
    const std::vector<const CoverMatrix*>& batch) const {
    static stats::Counter& c_batches = stats::counter("batch.calls");
    static stats::Counter& c_items = stats::counter("batch.instances");
    const stats::ScopedTimer phase_timer("batch.seconds");
    TRACE_SPAN("batch.solve");
    c_batches.add();
    c_items.add(batch.size());

    Timer timer;
    BatchResult out;
    out.items = parallel_map(batch.size(), opt_.num_threads, [&](std::size_t b) {
        return solve_one(*batch[b], opt_);
    });
    out.seconds = timer.seconds();
    return out;
}

BatchResult BatchSolver::solve(const std::vector<CoverMatrix>& batch) const {
    std::vector<const CoverMatrix*> ptrs;
    ptrs.reserve(batch.size());
    for (const CoverMatrix& m : batch) ptrs.push_back(&m);
    return solve(ptrs);
}

BatchItem BatchSolver::solve_one(const CoverMatrix& m,
                                 const BatchOptions& opt) {
    UCP_REQUIRE(opt.scg.governor == nullptr,
                "BatchSolver: per-batch governors are not supported");
    BatchItem item;
    Timer timer;
    const cov::ReduceResult red = cov::reduce(m);
    item.reduce_seconds = timer.seconds();
    item.core_rows = red.core.num_rows();
    item.core_cols = red.core.num_cols();
    timer.restart();

    // Per-instance memory isolation (when governed at all): a child
    // accountant under the process one and a Budget bound to it, so an
    // instance that blows its sub-cap degrades alone while its neighbours
    // keep working. The unaccounted path allocates nothing.
    std::optional<MemoryBudget> mem;
    std::optional<Budget> gov;
    std::size_t charged = 0;
    MemoryBudget* proc = MemoryBudget::process_default();
    if (proc != nullptr || opt.mem_budget_per_item != 0) {
        mem.emplace(opt.mem_budget_per_item, proc);
        BudgetOptions bo;
        bo.memory = &*mem;
        gov.emplace(bo);
        if (gov->charge_memory(red.core.memory_bytes()))
            charged = red.core.memory_bytes();
        else
            item.status = Status::kResourceExhausted;
    }

    item.solution = red.essential_cols;
    item.cost = red.fixed_cost;
    item.lower_bound = red.fixed_cost;
    if (red.core.num_rows() == 0) {
        item.proved_optimal = true;  // the reductions solved it outright
    } else if (item.status == Status::kResourceExhausted) {
        // The core charge was denied: the greedy cover of the core is
        // feasible, cheap, and the only honest answer once the budget is gone.
        const GreedyResult g = chvatal_greedy(red.core);
        for (const Index j : g.solution)
            item.solution.push_back(red.core_col_map[j]);
        item.cost += g.cost;
    } else {
        ScgOptions sopt = opt.scg;
        if (gov) sopt.governor = &*gov;
        const ScgResult scg = solve_scg(red.core, sopt);
        for (const Index j : scg.solution)
            item.solution.push_back(red.core_col_map[j]);
        item.cost += scg.cost;
        item.lower_bound += scg.lower_bound;
        item.proved_optimal = scg.proved_optimal;
        item.scg_runs = scg.runs_executed;
        item.status = scg.status;
    }
    std::sort(item.solution.begin(), item.solution.end());
    UCP_ASSERT(m.is_feasible(item.solution));
    if (gov) gov->release_memory(charged);
    item.solve_seconds = timer.seconds();
    return item;
}

}  // namespace ucp::solver
