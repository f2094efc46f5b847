#include "solver/scg.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/penalties.hpp"
#include "matrix/reductions.hpp"
#include "matrix/sub_matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ucp::solver {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;

namespace {

// BestCol (§4): run 1 fixes the best-rated column; run r ≥ 2 draws at random
// among the best kBestColStart + (r − 2)·kBestColGrowth, widening the explored
// region from run to run.
constexpr int kBestColStart = 1;
constexpr int kBestColGrowth = 2;
// DualPen (§3.6): the dual penalty tests re-run dual ascent once per probed
// column, so they only run on cores with at most this many live columns.
constexpr std::size_t kDualPenMaxCols = 100;
// The fixing loop works on an in-place live view of the core and only
// materialises a compacted matrix when the live fraction (min of live
// rows/cols over base dims) drops below this threshold. Results are
// bit-identical for any value (DESIGN.md §7). Keep it high: the subgradient
// iterates the base spans, so dead slots cost wall-clock — 0.9 caps that at
// ~10% while still skipping the rebuild after steps that removed almost
// nothing.
constexpr double kCompactLiveFraction = 0.9;

/// A sub-problem: a base matrix, the live view the fixing loop mutates, and
/// mappings of base rows/columns back to the ORIGINAL problem, plus
/// warm-start multipliers aligned with the base index space. Multipliers of
/// dead rows/columns are frozen and never read — the Lagrangian engine skips
/// dead slots, so no remapping is needed between fixing steps.
struct Work {
    CoverMatrix mat;
    cov::SubMatrix view;         // live view over `mat`
    std::vector<Index> col_map;  // base col -> original col
    std::vector<Index> row_map;  // base row -> original row
    std::vector<double> lambda;  // per base row
    std::vector<double> mu;      // per base col

    Work() = default;
    Work(const Work& o)
        : mat(o.mat), view(o.view), col_map(o.col_map), row_map(o.row_map),
          lambda(o.lambda), mu(o.mu) {
        view.rebind(&mat);
    }
    Work& operator=(const Work& o) {
        if (this != &o) {
            mat = o.mat;
            view = o.view;
            col_map = o.col_map;
            row_map = o.row_map;
            lambda = o.lambda;
            mu = o.mu;
            view.rebind(&mat);
        }
        return *this;
    }

    /// Replaces the base with the compacted live sub-matrix, remapping the
    /// maps and multipliers into the new (dense) index space. Everything in
    /// the new base starts alive.
    void compact_base() {
        std::vector<Index> cmap, rmap;
        CoverMatrix compacted = view.compact(cmap, rmap);
        std::vector<Index> ncol(cmap.size()), nrow(rmap.size());
        std::vector<double> nmu(cmap.size()), nlambda(rmap.size());
        for (std::size_t k = 0; k < cmap.size(); ++k) {
            ncol[k] = col_map[cmap[k]];
            nmu[k] = mu.empty() ? 0.0 : mu[cmap[k]];
        }
        for (std::size_t k = 0; k < rmap.size(); ++k) {
            nrow[k] = row_map[rmap[k]];
            nlambda[k] = lambda.empty() ? 0.0 : lambda[rmap[k]];
        }
        mat = std::move(compacted);
        col_map = std::move(ncol);
        row_map = std::move(nrow);
        mu = std::move(nmu);
        lambda = std::move(nlambda);
        view.reset(mat);
    }
};

ScgResult solve_scg_single(const CoverMatrix& m, const ScgOptions& opt);

/// One full descent (partitioning + per-block SCG) with a single seed.
ScgResult solve_scg_one_start(const CoverMatrix& m, const ScgOptions& opt) {
    // Partitioning reduction (paper §2): solve independent blocks separately.
    const auto blocks = cov::partition_blocks(m);
    if (blocks.size() <= 1) return solve_scg_single(m, opt);

    Timer timer;
    ScgResult out;
    out.proved_optimal = true;
    for (const auto& block : blocks) {
        const ScgResult r = solve_scg_single(block.matrix, opt);
        for (const Index j : r.solution)
            out.solution.push_back(block.col_map[j]);
        out.cost += r.cost;
        out.lower_bound += r.lower_bound;
        out.proved_optimal = out.proved_optimal && r.proved_optimal;
        out.runs_executed = std::max(out.runs_executed, r.runs_executed);
        out.run_of_best = std::max(out.run_of_best, r.run_of_best);
        out.subgradient_calls += r.subgradient_calls;
        if (out.status == Status::kOk) out.status = r.status;
    }
    out.seconds = timer.seconds();
    UCP_ASSERT(m.is_feasible(out.solution));
    return out;
}

}  // namespace

ScgResult solve_scg(const CoverMatrix& m, const ScgOptions& opt) {
    static stats::Counter& c_calls = stats::counter("scg.calls");
    static stats::Counter& c_starts = stats::counter("scg.starts");
    static stats::Counter& c_sub = stats::counter("scg.subgradient_calls");
    const stats::ScopedTimer phase_timer("scg.seconds");
    TRACE_SPAN("scg");
    c_calls.add();

    const int starts = std::max(1, opt.num_starts);
    if (starts == 1) {
        ScgResult out = solve_scg_one_start(m, opt);
        out.starts_executed = 1;
        out.start_of_best = 0;
        c_starts.add(1);
        c_sub.add(out.subgradient_calls);
        return out;
    }

    Timer timer;
    // Only the explicit (matrix) phase fans out: each start is an independent
    // descent on its own copy of the problem, so this is safe with any
    // thread count. Results land in a per-start slot and reduce by (cost,
    // start index) — bit-identical output regardless of scheduling.
    const std::vector<ScgResult> results = parallel_map(
        static_cast<std::size_t>(starts), opt.num_threads, [&](std::size_t s) {
            TRACE_SPAN("scg.start");
            ScgOptions local = opt;
            local.num_starts = 1;
            local.seed = stream_seed(opt.seed, s);
            local.log = s == 0 ? opt.log : nullptr;
            // Each start governs itself through a fork: shared cancel token
            // and absolute deadline, private iteration/fault counters — so
            // injected faults trip at the same point in every start no matter
            // how the starts are scheduled across threads.
            Budget forked;
            if (opt.governor != nullptr) {
                forked = opt.governor->fork();
                local.governor = &forked;
            }
            return solve_scg_one_start(m, local);
        });

    std::size_t best = 0;
    for (std::size_t s = 1; s < results.size(); ++s)
        if (results[s].cost < results[best].cost) best = s;

    ScgResult out = results[best];
    out.starts_executed = starts;
    out.start_of_best = static_cast<int>(best);
    out.status = Status::kOk;
    for (std::size_t s = 0; s < results.size(); ++s) {
        // Every start's Lagrangian bound is valid; keep the strongest. The
        // status merge is deterministic too: first non-kOk by start index.
        if (out.status == Status::kOk) out.status = results[s].status;
        out.lower_bound = std::max(out.lower_bound, results[s].lower_bound);
        if (s != best) out.subgradient_calls += results[s].subgradient_calls;
    }
    out.proved_optimal = out.cost <= out.lower_bound;
    out.seconds = timer.seconds();
    c_starts.add(static_cast<std::uint64_t>(starts));
    c_sub.add(out.subgradient_calls);
    return out;
}

namespace {

ScgResult solve_scg_single(const CoverMatrix& m, const ScgOptions& opt) {
    Timer timer;
    Rng rng(opt.seed);
    ScgResult out;
    lagr::LagrangianWorkspace ws;

    // The subgradient phases charge their iterations against the same
    // governor, so a deadline/cancel trip surfaces both here (between fixing
    // steps) and inside the ascent (between iterations).
    lagr::SubgradientOptions subopt = opt.subgradient;
    if (subopt.governor == nullptr) subopt.governor = opt.governor;

    Status stop = Status::kOk;
    const auto expired = [&] {
        if (stop == Status::kOk && opt.governor != nullptr)
            stop = opt.governor->check();
        return stop != Status::kOk;
    };

    // ---- initial reduction to the exact cyclic core ---------------------------
    std::vector<Index> essentials;  // original indices, part of every solution
    Work root;
    {
        const cov::ReduceResult red = cov::reduce(m);
        essentials = red.essential_cols;
        root.mat = red.core;
        root.col_map = red.core_col_map;
        root.row_map = red.core_row_map;
        root.view.reset(root.mat);
    }
    const Cost essential_cost = m.solution_cost(essentials);

    if (root.mat.num_rows() == 0) {
        out.solution = m.make_irredundant(essentials);
        out.cost = m.solution_cost(out.solution);
        out.lower_bound = out.cost;
        out.proved_optimal = true;
        out.seconds = timer.seconds();
        return out;
    }

    // ---- root subgradient: global bound + first incumbent ----------------------
    const auto root_sub = lagr::subgradient_ascent(root.mat, ws, subopt);
    ++out.subgradient_calls;
    root.lambda = root_sub.lambda;
    root.mu = root_sub.mu;

    out.lower_bound = essential_cost + root_sub.lb;

    std::vector<Index> best = essentials;
    for (const Index j : root_sub.best_solution) best.push_back(root.col_map[j]);
    best = m.make_irredundant(std::move(best));
    Cost best_cost = m.solution_cost(best);
    out.run_of_best = 0;

    if (opt.log != nullptr)
        *opt.log << "[scg] core " << root.mat.num_rows() << "x"
                 << root.mat.num_cols() << " essentials " << essentials.size()
                 << " root LB " << out.lower_bound << " incumbent " << best_cost
                 << '\n';

    // Save the exact cyclic core (paper: A_e, p_e).
    const Work saved = root;

    if (best_cost <= out.lower_bound) {
        out.solution = std::move(best);
        out.cost = best_cost;
        out.proved_optimal = true;
        out.seconds = timer.seconds();
        return out;
    }

    // ---- NumIter constructive runs ---------------------------------------------
    for (int run = 1; run <= opt.num_iter && !expired(); ++run) {
        TRACE_SPAN_ITER("scg.run");
        ++out.runs_executed;
        if (best_cost <= out.lower_bound) break;  // already proven optimal
        std::int64_t fix_step = 0;
        Work w = saved;
        std::vector<Index> chosen = essentials;  // original ids fixed so far
        auto sub = root_sub;  // valid for `saved`, re-computed after each fixing
        const int best_col =
            run == 1 ? 1 : kBestColStart + (run - 2) * kBestColGrowth;

        while (w.view.num_live_rows() > 0 && !expired()) {
            const Index C = w.mat.num_cols();
            TRACE_ITER("scg", fix_step++, static_cast<double>(out.lower_bound),
                       static_cast<double>(best_cost), 0.0,
                       static_cast<std::uint64_t>(w.view.num_live_rows()),
                       static_cast<std::uint64_t>(w.view.num_live_cols()),
                       trace::dd_cache_hit_rate());
            // Candidate incumbent: chosen + this phase's heuristic solution.
            {
                std::vector<Index> cand = chosen;
                for (const Index j : sub.best_solution)
                    cand.push_back(w.col_map[j]);
                cand = m.make_irredundant(std::move(cand));
                const Cost cc = m.solution_cost(cand);
                if (cc < best_cost) {
                    best_cost = cc;
                    best = std::move(cand);
                    out.run_of_best = run;
                }
            }
            // Local bound: nothing better reachable from this partial fixing.
            const Cost chosen_cost = m.solution_cost(chosen);
            if (chosen_cost + sub.lb >= best_cost) break;
            const Cost local_target = best_cost - chosen_cost;

            std::vector<Index> to_fix;  // base columns to take
            std::vector<bool> fix_mask(C, false);
            std::vector<Index> to_remove;  // base columns to delete
            std::vector<bool> remove_mask(C, false);
            const auto mark_fix = [&](Index j) {
                if (!fix_mask[j] && !remove_mask[j]) {
                    fix_mask[j] = true;
                    to_fix.push_back(j);
                }
            };
            const auto mark_remove = [&](Index j) {
                if (!remove_mask[j] && !fix_mask[j]) {
                    remove_mask[j] = true;
                    to_remove.push_back(j);
                }
            };

            // Penalty tests prove columns in / out of improving completions.
            if (opt.use_lagrangian_penalties) {
                const auto pen = lagr::lagrangian_penalties(
                    w.view, sub.lagrangian_costs, sub.lb_fractional, local_target);
                for (const Index j : pen.fix_to_one) mark_fix(j);
                for (const Index j : pen.fix_to_zero) mark_remove(j);
            }
            if (opt.use_dual_penalties &&
                w.view.num_live_cols() <= kDualPenMaxCols) {
                const auto pen = lagr::dual_penalties(
                    w.view, ws, local_target, sub.lambda, kDualPenMaxCols);
                for (const Index j : pen.fix_to_one) mark_fix(j);
                for (const Index j : pen.fix_to_zero) mark_remove(j);
            }

            // Promising columns: c̃_j ≤ ĉ and µ_j ≥ µ̂ (§3.7).
            for (Index j = 0; j < C; ++j)
                if (w.view.col_alive(j) && sub.lagrangian_costs[j] <= opt.c_hat &&
                    w.mu[j] >= opt.mu_hat)
                    mark_fix(j);

            // Always fix at least one column: σ = c̃ − α·µ rating (§3.7/§4).
            if (to_fix.empty()) {
                std::vector<Index> order;
                for (Index j = 0; j < C; ++j)
                    if (w.view.col_alive(j) && !remove_mask[j]) order.push_back(j);
                if (order.empty()) break;  // everything removed: hopeless path
                std::sort(order.begin(), order.end(), [&](Index x, Index y) {
                    const double sx =
                        sub.lagrangian_costs[x] - opt.alpha * w.mu[x];
                    const double sy =
                        sub.lagrangian_costs[y] - opt.alpha * w.mu[y];
                    return sx != sy ? sx < sy : x < y;
                });
                const std::size_t pool = std::min<std::size_t>(
                    order.size(), static_cast<std::size_t>(std::max(1, best_col)));
                const Index pick =
                    order[run == 1 ? 0 : static_cast<std::size_t>(rng.below(pool))];
                mark_fix(pick);
            }

            // Apply the removals in place; a row losing its last column means
            // no improving completion exists down this path.
            cov::ReduceDirt dirt;
            bool uncoverable = false;
            for (const Index j : to_remove)
                w.view.remove_col(j, [&](Index i) {
                    dirt.rows.push_back(i);
                    if (w.view.live_row_size(i) == 0) uncoverable = true;
                });
            if (uncoverable) break;  // path proven hopeless

            // Take the fixed columns (kills the rows they cover), then drive
            // the reductions back to a fixpoint from the dirtied entities.
            for (const Index j : to_fix) {
                chosen.push_back(w.col_map[j]);
                w.view.fix_col(
                    j, [](Index) {},
                    [&](Index, Index j2) { dirt.cols.push_back(j2); });
            }
            const auto red = cov::reduce_inplace(w.view, dirt);
            for (const Index j : red.essential_cols)
                chosen.push_back(w.col_map[j]);
            if (w.view.num_live_rows() == 0) break;  // `chosen` is feasible

            // Re-compact only when the live fraction dropped enough for the
            // dense rebuild to pay for itself; the engines are bit-identical
            // on the view and on the compacted matrix.
            if (w.view.live_fraction() < kCompactLiveFraction)
                w.compact_base();

            // Re-optimise the multipliers on the reduced problem, warm-started
            // from the previous ones (paper §3.2: "the best value determined
            // for the previous problem is assumed as the initial one").
            sub = lagr::subgradient_ascent(w.view, ws, subopt, w.lambda, w.mu);
            ++out.subgradient_calls;
            w.lambda = sub.lambda;
            w.mu = sub.mu;
        }

        if (opt.log != nullptr)
            *opt.log << "[scg] run " << run << " (BestCol " << best_col
                     << "): incumbent " << best_cost << ", "
                     << out.subgradient_calls << " subgradient phases\n";

        // Run finished: if the constructive solution is feasible, it is a
        // candidate; make it irredundant (paper's final While loop).
        if (m.is_feasible(chosen)) {
            std::vector<Index> cand = m.make_irredundant(std::move(chosen));
            const Cost cc = m.solution_cost(cand);
            if (cc < best_cost) {
                best_cost = cc;
                best = std::move(cand);
                out.run_of_best = run;
            }
        }
    }

    out.solution = std::move(best);
    out.cost = best_cost;
    out.proved_optimal = out.cost <= out.lower_bound;
    out.status = stop;
    out.seconds = timer.seconds();
    return out;
}

}  // namespace

}  // namespace ucp::solver
