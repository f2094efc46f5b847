#include "solver/portfolio.hpp"

#include <algorithm>
#include <optional>

#include "matrix/reductions.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ucp::solver {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;

PortfolioResult solve_portfolio(const CoverMatrix& m,
                                const PortfolioOptions& opt) {
    static stats::Counter& c_calls = stats::counter("portfolio.calls");
    static stats::Counter& c_tasks = stats::counter("portfolio.rwls_tasks");
    static stats::Counter& c_polish_wins =
        stats::counter("portfolio.polish_wins");
    static stats::Counter& c_cross = stats::counter("portfolio.cross_seeds");
    const stats::ScopedTimer phase_timer("portfolio.seconds");
    TRACE_SPAN("portfolio");
    c_calls.add();

    Timer timer;
    PortfolioResult out;

    const auto tripped = [&] {
        if (out.status != Status::kOk) return true;
        if (opt.governor == nullptr) return false;
        const Status st = opt.governor->check();
        if (st != Status::kOk) out.status = st;
        return st != Status::kOk;
    };
    const auto merge_status = [&](Status st) {
        if (out.status == Status::kOk) out.status = st;
    };

    // ---- phase 1: SCG, exactly as configured -------------------------------
    ScgOptions scg_opt = opt.scg;
    if (scg_opt.governor == nullptr) scg_opt.governor = opt.governor;
    const ScgResult scg = solve_scg(m, scg_opt);
    merge_status(scg.status);
    out.solution = scg.solution;
    out.cost = scg.cost;
    out.scg_cost = scg.cost;
    out.rwls_cost = scg.cost;
    out.lower_bound = scg.lower_bound;
    out.winner_phase = 1;
    TRACE_ITER("portfolio", 1, static_cast<double>(out.lower_bound),
               static_cast<double>(out.cost), 0.0, 0, 0, 0.0);

    // ---- phase 2: RWLS polish fan-out (SCG → RWLS cross-seed) --------------
    // The polish searches the cyclic core: essentials belong to every optimal
    // cover, so local search only has to move within the core, and the SCG
    // incumbent restricted to core columns is the warm start. Columns of the
    // warm cover that dominance removed from the core are dropped; RWLS
    // re-completes the cover greedily before searching.
    const int tasks = std::max(0, opt.rwls_tasks);
    if (tasks > 0 && out.cost > out.lower_bound && !tripped()) {
        const cov::ReduceResult red = cov::reduce(m);
        if (!red.solved()) {
            constexpr Index kNone = static_cast<Index>(-1);
            std::vector<Index> inv(m.num_cols(), kNone);
            for (std::size_t k = 0; k < red.core_col_map.size(); ++k)
                inv[red.core_col_map[k]] = static_cast<Index>(k);
            std::vector<Index> warm_core;
            for (const Index j : scg.solution)
                if (inv[j] != kNone) warm_core.push_back(inv[j]);
            // Global LB = essential cost + core LB, so this core target is
            // valid: a core cover reaching it proves the phase optimal.
            const Cost core_target =
                std::max<Cost>(0, scg.lower_bound - red.fixed_cost);

            const std::vector<search::RwlsResult> results = parallel_map(
                static_cast<std::size_t>(tasks), opt.num_threads,
                [&](std::size_t t) {
                    TRACE_SPAN("portfolio.rwls_task");
                    search::RwlsOptions local = opt.rwls;
                    local.seed = stream_seed(opt.rwls.seed, t);
                    local.initial = warm_core;
                    local.target_lower_bound = core_target;
                    std::optional<Budget> forked;
                    if (opt.governor != nullptr) {
                        forked.emplace(opt.governor->fork());
                        local.governor = &*forked;
                    }
                    search::RwlsWorkspace ws;
                    return search::rwls_improve(red.core, local, ws);
                });
            out.rwls_tasks_run = tasks;
            c_tasks.add(static_cast<std::uint64_t>(tasks));
            for (int t = 0; t < tasks; ++t) {
                const auto& r = results[static_cast<std::size_t>(t)];
                merge_status(r.status);
                out.rwls_steps += r.steps;
                std::vector<Index> full = red.essential_cols;
                for (const Index j : r.solution)
                    full.push_back(red.core_col_map[j]);
                full = m.make_irredundant(std::move(full));
                const Cost fc = m.solution_cost(full);
                if (fc < out.cost) {
                    out.cost = fc;
                    out.solution = std::move(full);
                    out.winner_phase = 2;
                    out.rwls_task_of_best = t;
                }
            }
            out.rwls_cost = out.cost;
            if (out.winner_phase == 2) c_polish_wins.add();
            TRACE_ITER("portfolio", 2, static_cast<double>(out.lower_bound),
                       static_cast<double>(out.cost), 0.0, 0, 0, 0.0);
        }
    }

    // ---- phase 3: SCG re-seed (RWLS → Lagrangian fixing rule) --------------
    if (out.winner_phase == 2 && out.cost > out.lower_bound && !tripped()) {
        c_cross.add();
        ScgOptions reseed_opt = scg_opt;
        reseed_opt.warm_solution = out.solution;
        const ScgResult reseed = solve_scg(m, reseed_opt);
        merge_status(reseed.status);
        out.lower_bound = std::max(out.lower_bound, reseed.lower_bound);
        if (reseed.cost < out.cost) {
            out.cost = reseed.cost;
            out.solution = reseed.solution;
            out.winner_phase = 3;
        }
        TRACE_ITER("portfolio", 3, static_cast<double>(out.lower_bound),
                   static_cast<double>(out.cost), 0.0, 0, 0, 0.0);
    }

    // ---- phase 4: exact finish (incumbent → BnB) ---------------------------
    if (opt.finish_exact && out.cost > out.lower_bound && !tripped()) {
        c_cross.add();
        BnbOptions exact_opt = opt.exact;
        exact_opt.warm_solution = out.solution;
        if (exact_opt.governor == nullptr) exact_opt.governor = opt.governor;
        const BnbResult exact = solve_exact(m, exact_opt);
        merge_status(exact.status);
        out.exact_ran = true;
        out.lower_bound = std::max(out.lower_bound, exact.lower_bound);
        if (exact.cost < out.cost) {
            out.cost = exact.cost;
            out.solution = exact.solution;
            out.winner_phase = 4;
        }
        TRACE_ITER("portfolio", 4, static_cast<double>(out.lower_bound),
                   static_cast<double>(out.cost), 0.0, 0, 0, 0.0);
    }

    out.proved_optimal = out.cost <= out.lower_bound;
    out.seconds = timer.seconds();
    UCP_ASSERT(m.is_feasible(out.solution));
    return out;
}

}  // namespace ucp::solver
