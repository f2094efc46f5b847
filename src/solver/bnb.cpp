// Decomposition-parallel exact branch-and-bound (DESIGN.md §11).
//
// The search keeps the classical mincov node structure (reduce to the cyclic
// core, bound, limit-bound strip, n-ary branch on a shortest row) and adds
// the partitioning reduction *dynamically*: after every reduce-to-core the
// live structure is scanned for independent blocks (matrix/components.hpp)
// and each block is solved as its own subproblem — at the root across worker
// threads with a work-stealing deque, inside the tree sequentially with
// per-block thresholds. Correctness of the cross-block pruning rests on one
// recombination identity, proven in DESIGN.md §11: with per-block results
// B*_b found under thresholds derived from the shared incumbent and the
// other blocks' lower bounds,
//
//     answer = min(whole-matrix greedy, cost0 + Σ_b B*_b)
//
// equals the optimum in every thread interleaving — if some block's search
// was cut by its threshold, the incumbent that produced the threshold is
// itself already optimal.
#include "solver/bnb.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "lagrangian/dual_ascent.hpp"
#include "lagrangian/penalties.hpp"
#include "lagrangian/subgradient.hpp"
#include "lp/simplex.hpp"
#include "matrix/components.hpp"
#include "matrix/reductions.hpp"
#include "solver/greedy.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "util/work_deque.hpp"

namespace ucp::solver {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;

namespace {

constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 4;
// Per-node effort of the stronger bounds (BnbBound::kLagrangian, kLp,
// kIncrementalMis): subgradient iterations, the core size (rows × cols)
// above which the LP falls back to dual ascent, and how many rows beyond
// the MIS the incremental-MIS sub-problem may take.
constexpr int kLagrangianIterations = 60;
constexpr std::size_t kLpCellLimit = 40'000;
constexpr int kIncrementalMisExtraRows = 6;

stats::Counter& blocks_found_counter() {
    static stats::Counter& c = stats::counter("bnb.blocks_found");
    return c;
}
stats::Counter& blocks_pruned_counter() {
    static stats::Counter& c = stats::counter("bnb.blocks_pruned");
    return c;
}
stats::Counter& core_copies_skipped_counter() {
    static stats::Counter& c = stats::counter("bnb.core_copies_skipped");
    return c;
}

// ---- cross-block shared state ----------------------------------------------

/// The dynamic bound exchange between top-level blocks. All members are
/// block-relative costs (essentials excluded except in `incumbent`, which is
/// a full-solution value). Monotonicity is the soundness argument: `cur[b]`
/// and `incumbent` only decrease (each step backed by an achievable cover),
/// `lb[b]` only increases (each step a proven bound), so a threshold read at
/// any moment is weaker than the final one and prunes conservatively.
struct SharedBlocks {
    SharedBlocks(Index num_blocks, Cost cost0_)
        : cost0(cost0_), cur(num_blocks), lb(num_blocks) {}

    Cost cost0;
    std::vector<std::atomic<Cost>> cur;  ///< best known value per block (≤ UB_b)
    std::vector<std::atomic<Cost>> lb;   ///< proven lower bound per block
    std::atomic<Cost> cur_sum{0};        ///< Σ cur[b]
    std::atomic<Cost> lb_sum{0};         ///< Σ lb[b]
    std::atomic<Cost> incumbent{kInfCost};  ///< best full-cover value known

    /// Block b's share of the incumbent: a block-b solution of value ≥ this
    /// cannot improve the best full cover even if every other block reaches
    /// its current lower bound.
    [[nodiscard]] Cost threshold(Index b) const {
        const Cost others = lb_sum.load(std::memory_order_relaxed) -
                            lb[b].load(std::memory_order_relaxed);
        return incumbent.load(std::memory_order_relaxed) - cost0 - others;
    }

    /// Records an improved block-b solution value (serialised per block by
    /// the scope mutex) and lowers the shared incumbent: the combination of
    /// every block's current best is itself an achievable full cover.
    void publish(Index b, Cost c) {
        const Cost old = cur[b].exchange(c, std::memory_order_relaxed);
        UCP_ASSERT(old > c);
        cur_sum.fetch_sub(old - c, std::memory_order_acq_rel);
        const Cost cand = cost0 + cur_sum.load(std::memory_order_relaxed);
        Cost inc = incumbent.load(std::memory_order_relaxed);
        while (cand < inc &&
               !incumbent.compare_exchange_weak(inc, cand,
                                                std::memory_order_relaxed)) {
        }
    }

    /// Raises block b's proven bound after its search finished (tightens
    /// every other block's threshold).
    void complete(Index b, Cost new_lb) {
        const Cost old = lb[b].load(std::memory_order_relaxed);
        if (new_lb <= old) return;
        lb[b].store(new_lb, std::memory_order_relaxed);
        lb_sum.fetch_add(new_lb - old, std::memory_order_acq_rel);
    }
};

// ---- incumbent scope --------------------------------------------------------

/// Where one (sub)search publishes improving solutions and reads its pruning
/// bound. Standalone scopes (in-node block searches) bound against their own
/// best only; top-level block scopes additionally read the cross-block
/// threshold, so the globally seeded upper bound feeds every block's pruning
/// and limit-bound fixing rule.
class Scope {
public:
    void init(Cost cap, SharedBlocks* shared, Index block,
              std::atomic<std::size_t>* nodes) {
        best_.store(cap, std::memory_order_relaxed);
        found_ = false;
        solution_.clear();
        shared_ = shared;
        block_ = block;
        nodes_ = nodes;
    }

    /// Installs a known-achievable baseline (the block greedy) without going
    /// through offer(): used during single-threaded prep, where the shared
    /// sums are set directly and publish() must not fire.
    void seed(Cost cap, std::vector<cov::Index> solution, SharedBlocks* shared,
              Index block, std::atomic<std::size_t>* nodes) {
        init(cap, shared, block, nodes);
        found_ = true;
        solution_ = std::move(solution);
    }

    /// Strict-improvement threshold: solutions must beat this to matter.
    [[nodiscard]] Cost bound() const {
        Cost b = best_.load(std::memory_order_relaxed);
        if (shared_ != nullptr) b = std::min(b, shared_->threshold(block_));
        return b;
    }

    /// Offers a solution (original column indices) of value `c`; keeps it if
    /// it improves this scope's best.
    void offer(Cost c, const std::vector<cov::Index>& solution) {
        if (c >= best_.load(std::memory_order_relaxed)) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        if (c >= best_.load(std::memory_order_relaxed)) return;
        best_.store(c, std::memory_order_relaxed);
        found_ = true;
        solution_ = solution;
        if (shared_ != nullptr) shared_->publish(block_, c);
        TRACE_INSTANT("bnb.incumbent");
        TRACE_ITER("bnb",
                   static_cast<std::int64_t>(
                       nodes_ != nullptr
                           ? nodes_->load(std::memory_order_relaxed)
                           : 0),
                   shared_ != nullptr
                       ? static_cast<double>(
                             shared_->cost0 +
                             shared_->lb_sum.load(std::memory_order_relaxed))
                       : 0.0,
                   static_cast<double>(c), 0.0, 0, 0,
                   trace::dd_cache_hit_rate());
    }

    /// Best value (always achievable once found()/seeded) and its cover.
    [[nodiscard]] Cost best() const {
        return best_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] bool found() const { return found_; }
    [[nodiscard]] const std::vector<cov::Index>& solution() const {
        return solution_;
    }

private:
    std::atomic<Cost> best_{kInfCost};
    bool found_ = false;               // guarded by mutex_ while racing
    std::vector<cov::Index> solution_;  // guarded by mutex_ while racing
    std::mutex mutex_;
    SharedBlocks* shared_ = nullptr;
    Index block_ = 0;
    std::atomic<std::size_t>* nodes_ = nullptr;
};

// ---- per-worker search context ---------------------------------------------

struct Ctx {
    Ctx(const BnbOptions& o, Budget* gov, std::atomic<std::size_t>& n,
        std::atomic<bool>& ab)
        : opt(o), governor(gov), nodes(n), aborted(ab) {}

    const BnbOptions& opt;
    Budget* governor;                 // this subtask's governor (may be null)
    std::atomic<std::size_t>& nodes;  // global expansion counter
    std::atomic<bool>& aborted;       // cooperative global cancel
    Status stop = Status::kOk;
    cov::ComponentWorkspace comp_ws;  // per-worker, allocation-free reuse

    bool out_of_budget() {
        if (nodes.load(std::memory_order_relaxed) >= opt.max_nodes) return true;
        if (governor != nullptr && stop == Status::kOk)
            stop = governor->charge_iteration();
        return stop != Status::kOk;
    }

    void abort() {
        if (!aborted.exchange(true, std::memory_order_relaxed))
            TRACE_INSTANT("bnb.budget_trip");
    }
};

/// Lower bound of a (non-empty) core. `mis` is the node's single MIS
/// computation, shared between the bound choice and the limit-bound strip.
Cost core_bound(const CoverMatrix& core, const BnbOptions& opt,
                const lagr::MisResult& mis, std::vector<Index>* incumbent_out,
                Cost* incumbent_cost_out) {
    switch (opt.bound) {
        case BnbBound::kMis:
            return mis.bound;
        case BnbBound::kDualAscent: {
            const double w = lagr::dual_ascent(core).value;
            return static_cast<Cost>(std::ceil(w - 1e-6));
        }
        case BnbBound::kLagrangian: {
            lagr::SubgradientOptions sopt;
            sopt.max_iterations = kLagrangianIterations;
            sopt.use_dual_lagrangian = false;
            sopt.heuristic_period = 20;
            const auto sub = lagr::subgradient_ascent(core, sopt);
            if (incumbent_out != nullptr) {
                *incumbent_out = sub.best_solution;
                *incumbent_cost_out = sub.best_cost;
            }
            return sub.lb;
        }
        case BnbBound::kLp: {
            const std::size_t cells =
                static_cast<std::size_t>(core.num_rows()) * core.num_cols();
            if (cells > kLpCellLimit) {
                const double w = lagr::dual_ascent(core).value;
                return static_cast<Cost>(std::ceil(w - 1e-6));
            }
            return lp::lp_lower_bound_rounded(core);
        }
        case BnbBound::kIncrementalMis:
            return incremental_mis_bound(core, kIncrementalMisExtraRows);
    }
    return mis.bound;
}

void recurse(const CoverMatrix& mat, const std::vector<Index>& col_map,
             const std::vector<Index>& fixed, Cost cost_so_far,
             std::vector<Index>& chosen, Ctx& ctx, Scope& scope,
             int only_branch = -1);

/// Solves an expanded node whose core splits into k ≥ 2 independent blocks
/// (parts[b].col_map already remapped to ORIGINAL column indices): each
/// block is searched under its share of the scope bound, sequentially in
/// block-index order, and either every block beats its threshold (the
/// concatenation is offered) or the whole node is pruned.
void solve_node_blocks(const std::vector<cov::Partition>& parts, Cost cost,
                       std::vector<Index>& chosen, Ctx& ctx, Scope& scope) {
    const Index k = static_cast<Index>(parts.size());
    blocks_found_counter().add(k);

    std::vector<Cost> lb(k);
    Cost suffix_lb = 0;
    for (Index b = 0; b < k; ++b) {
        lb[b] = lagr::mis_lower_bound(parts[b].matrix).bound;
        suffix_lb += lb[b];
    }
    if (cost + suffix_lb >= scope.bound()) return;

    std::vector<std::vector<Index>> sols(k);
    Cost solved = 0;  // Σ opt over the solved prefix
    std::vector<Index> sub_chosen;
    for (Index b = 0; b < k; ++b) {
        TRACE_SPAN_ITER("bnb.block");
        suffix_lb -= lb[b];
        // Block b's share: beating t leaves room for the other blocks'
        // bounds within the scope bound. Re-reading scope.bound() here only
        // tightens t (it is monotone non-increasing).
        const Cost t = scope.bound() - cost - solved - suffix_lb;
        if (t <= lb[b]) return;  // no improving completion through this node

        const std::vector<Index>& block_map = parts[b].col_map;

        Scope sub;
        sub.init(t, nullptr, 0, &ctx.nodes);
        const GreedyResult g = chvatal_greedy(parts[b].matrix);
        if (g.cost < t) {
            std::vector<Index> seed;
            seed.reserve(g.solution.size());
            for (const Index j : g.solution) seed.push_back(block_map[j]);
            sub.offer(g.cost, seed);
        }
        sub_chosen.clear();
        recurse(parts[b].matrix, block_map, {}, 0, sub_chosen, ctx, sub);
        if (ctx.aborted.load(std::memory_order_relaxed)) return;
        // A standalone scope search is exhaustive below its final best, so
        // found ⇒ sub.best() is the block optimum; not found ⇒ opt_b ≥ t.
        if (!sub.found()) return;
        solved += sub.best();
        sols[b] = sub.solution();
    }

    std::vector<Index> cand = chosen;
    for (Index b = 0; b < k; ++b)
        cand.insert(cand.end(), sols[b].begin(), sols[b].end());
    scope.offer(cost + solved, cand);
}

void recurse(const CoverMatrix& mat, const std::vector<Index>& col_map,
             const std::vector<Index>& fixed, Cost cost_so_far,
             std::vector<Index>& chosen, Ctx& ctx, Scope& scope,
             int only_branch) {
    if (ctx.aborted.load(std::memory_order_relaxed)) return;
    if (ctx.out_of_budget()) {
        ctx.abort();
        return;
    }
    ctx.nodes.fetch_add(1, std::memory_order_relaxed);
    TRACE_SPAN_ITER("bnb.node");

    // Reduce on a live view (no compacted-core copy yet): the alive set of
    // `view` is the cyclic core.
    cov::SubMatrix view;
    cov::InplaceReduceResult red;
    {
        TRACE_SPAN_ITER("bnb.reduce");
        red = cov::reduce_to_view(mat, view, fixed);
    }
    const std::size_t chosen_mark = chosen.size();
    Cost cost = cost_so_far + red.fixed_cost;
    for (const Index j : red.essential_cols) chosen.push_back(col_map[j]);

    const auto unwind = [&] { chosen.resize(chosen_mark); };

    if (cost >= scope.bound()) {
        core_copies_skipped_counter().add();
        unwind();
        return;
    }
    if (view.num_live_rows() == 0) {  // reductions solved the node
        core_copies_skipped_counter().add();
        scope.offer(cost, chosen);
        unwind();
        return;
    }

    // Cheap prunes done — materialise the core once for the bound machinery,
    // the limit-bound strip and branching. Nodes cut above (inherited-cost
    // prune or solved by reduction) never pay this copy.
    std::vector<Index> core_rel_cols, core_rel_rows;
    const CoverMatrix core = view.compact(core_rel_cols, core_rel_rows);

    // Compose the core's column mapping.
    std::vector<Index> core_map(core.num_cols());
    for (Index j = 0; j < core.num_cols(); ++j)
        core_map[j] = col_map[core_rel_cols[j]];

    // One MIS per node: it feeds the kMis bound choice and the limit-bound
    // strip below.
    const lagr::MisResult mis = lagr::mis_lower_bound(core);
    std::vector<Index> inc;
    Cost inc_cost = 0;
    const Cost lb = core_bound(core, ctx.opt, mis, &inc, &inc_cost);
    if (!inc.empty() && cost + inc_cost < scope.bound()) {
        // A heuristic incumbent found while bounding.
        std::vector<Index> cand = chosen;
        for (const Index j : inc) cand.push_back(core_map[j]);
        scope.offer(cost + inc_cost, cand);
    }
    if (cost + lb >= scope.bound()) {
        unwind();
        return;
    }

    // Limit-bound theorem: discard columns that cannot be in an improving
    // solution. The upper bound fed to the fixing rule is the scope bound,
    // i.e. the globally cross-seeded incumbent share, not just this block's
    // own best. Skipped for root-split subtasks: the strip depends on the
    // time-varying bound and every subtask of a block must branch on the
    // same column set.
    const CoverMatrix* work = &core;
    CoverMatrix stripped;
    std::vector<Index> stripped_map;
    bool strip_fired = false;
    if (ctx.opt.use_limit_bound && only_branch < 0) {
        const auto removals = lagr::limit_bound_removals(
            core, mis.rows, cost + mis.bound, scope.bound());
        if (!removals.empty()) {
            std::vector<bool> mask(core.num_cols(), false);
            for (const Index j : removals) mask[j] = true;
            std::vector<Index> rel_map;
            if (!cov::strip_columns(core, mask, stripped, rel_map)) {
                unwind();
                return;  // no improving solution in this subtree
            }
            stripped_map.resize(rel_map.size());
            for (std::size_t j = 0; j < rel_map.size(); ++j)
                stripped_map[j] = core_map[rel_map[j]];
            work = &stripped;
            core_map = stripped_map;
            strip_fired = true;
        }
    }

    // Partitioning reduction, applied at the node (paper §2 made dynamic):
    // branching and reductions routinely disconnect the core mid-search.
    // When the strip fired the view is stale, so the stripped copy is
    // scanned; otherwise the scan and the split run on the live view — same
    // structure as the core, no intermediate copy.
    if (ctx.opt.decompose && work->num_rows() >= ctx.opt.parallel_min_rows) {
        std::vector<cov::Partition> parts;
        if (strip_fired) {
            const Index k = cov::find_components(*work, ctx.comp_ws);
            if (k >= 2) {
                cov::split_components(*work, ctx.comp_ws, k, parts);
                for (auto& p : parts)
                    for (auto& j : p.col_map) j = core_map[j];
            }
        } else {
            const Index k = cov::find_components(view, ctx.comp_ws);
            if (k >= 2) {
                cov::split_components(view, ctx.comp_ws, k, parts);
                for (auto& p : parts)
                    for (auto& j : p.col_map) j = col_map[j];
            }
        }
        if (!parts.empty()) {
            solve_node_blocks(parts, cost, chosen, ctx, scope);
            unwind();
            return;
        }
    }

    // Branch on the columns of a shortest row (complete disjunction). Each
    // branch k fixes column j_k and forbids j_1..j_{k-1}.
    Index branch_row = 0;
    for (Index i = 1; i < work->num_rows(); ++i)
        if (work->row(i).size() < work->row(branch_row).size()) branch_row = i;

    std::vector<Index> branch_cols = work->row(branch_row);
    // Try the most promising columns first: low cost, high coverage.
    std::sort(branch_cols.begin(), branch_cols.end(), [&](Index x, Index y) {
        const double sx =
            static_cast<double>(work->cost(x)) / static_cast<double>(work->col(x).size());
        const double sy =
            static_cast<double>(work->cost(y)) / static_cast<double>(work->col(y).size());
        return sx < sy;
    });

    std::vector<bool> forbidden(work->num_cols(), false);
    for (std::size_t k = 0; k < branch_cols.size(); ++k) {
        const Index j = branch_cols[k];
        if (only_branch >= 0 && static_cast<std::size_t>(only_branch) != k) {
            forbidden[j] = true;  // this branch belongs to a sibling subtask
            continue;
        }
        CoverMatrix child;
        std::vector<Index> child_rel;
        const CoverMatrix* child_mat = work;
        std::vector<Index> child_map = core_map;
        if (k > 0) {
            if (!cov::strip_columns(*work, forbidden, child, child_rel)) {
                forbidden[j] = true;
                continue;  // row lost all columns: skip this branch
            }
            child_map.resize(child_rel.size());
            for (std::size_t t = 0; t < child_rel.size(); ++t)
                child_map[t] = core_map[child_rel[t]];
            child_mat = &child;
        }
        // Locate j in the child matrix.
        Index j_child = j;
        if (k > 0) {
            j_child = child_mat->num_cols();
            for (Index t = 0; t < child_mat->num_cols(); ++t)
                if (child_map[t] == core_map[j]) {
                    j_child = t;
                    break;
                }
            UCP_ASSERT(j_child < child_mat->num_cols());
        }
        chosen.push_back(core_map[j]);
        recurse(*child_mat, child_map, {j_child}, cost + work->cost(j), chosen,
                ctx, scope);
        chosen.pop_back();
        forbidden[j] = true;
        if (ctx.aborted.load(std::memory_order_relaxed)) break;
    }
    unwind();
}

}  // namespace

Cost incremental_mis_bound(const CoverMatrix& m, int extra_rows) {
    const lagr::MisResult mis = lagr::mis_lower_bound(m);
    if (m.num_rows() == 0) return 0;

    // Grow the row set: add the tightest rows (smallest support) that are not
    // already selected. The induced sub-problem has fewer constraints than
    // the original, so its optimum is a valid lower bound — and it contains
    // the MIS rows, so it dominates the MIS bound.
    std::vector<bool> selected(m.num_rows(), false);
    for (const Index i : mis.rows) selected[i] = true;
    std::vector<Index> order;
    for (Index i = 0; i < m.num_rows(); ++i)
        if (!selected[i]) order.push_back(i);
    std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
        return m.row(a).size() < m.row(b).size();
    });
    std::vector<Index> rows = mis.rows;
    for (int t = 0; t < extra_rows && static_cast<std::size_t>(t) < order.size();
         ++t)
        rows.push_back(order[static_cast<std::size_t>(t)]);

    // Induced sub-matrix over the union of the selected rows' columns.
    constexpr Index kNone = ~Index{0};
    std::vector<Index> col_new(m.num_cols(), kNone);
    std::vector<Index> col_map;
    std::vector<std::vector<Index>> sub_rows;
    for (const Index i : rows) {
        std::vector<Index> r;
        for (const Index j : m.row(i)) {
            if (col_new[j] == kNone) {
                col_new[j] = static_cast<Index>(col_map.size());
                col_map.push_back(j);
            }
            r.push_back(col_new[j]);
        }
        sub_rows.push_back(std::move(r));
    }
    std::vector<Cost> costs;
    costs.reserve(col_map.size());
    for (const Index j : col_map) costs.push_back(m.cost(j));
    const CoverMatrix sub = CoverMatrix::from_rows(
        static_cast<Index>(col_map.size()), std::move(sub_rows),
        std::move(costs));

    BnbOptions sopt;
    sopt.bound = BnbBound::kDualAscent;  // no recursive strengthening
    sopt.max_nodes = 20'000;
    const BnbResult r = solve_exact(sub, sopt);
    // r.lower_bound ≤ sub-optimum ≤ full optimum whether or not the small
    // search completed; the MIS bound is the floor either way.
    return std::max(mis.bound, r.lower_bound);
}

BnbResult solve_exact(const CoverMatrix& m, const BnbOptions& opt) {
    TRACE_SPAN("bnb");
    Timer timer;
    BnbResult out;
    if (m.num_rows() == 0) {
        out.optimal = true;
        out.seconds = timer.seconds();
        return out;
    }

    // Baseline incumbent: whole-matrix greedy, improved by the caller's warm
    // cover when one is supplied and beats it (the portfolio's cross-seed).
    GreedyResult baseline = chvatal_greedy(m);
    if (!opt.warm_solution.empty() && m.is_feasible(opt.warm_solution)) {
        static stats::Counter& c_warm = stats::counter("bnb.warm_adopted");
        std::vector<Index> warm = m.make_irredundant(opt.warm_solution);
        const Cost wc = m.solution_cost(warm);
        if (wc < baseline.cost) {
            c_warm.add();
            baseline.cost = wc;
            baseline.solution = std::move(warm);
        }
    }

    cov::ReduceResult root;
    {
        TRACE_SPAN("bnb.reduce");
        root = cov::reduce(m);
    }
    const Cost cost0 = root.fixed_cost;
    if (root.solved()) {
        out.solution = m.make_irredundant(std::move(root.essential_cols));
        out.cost = m.solution_cost(out.solution);
        out.lower_bound = out.cost;
        out.optimal = true;
        out.seconds = timer.seconds();
        UCP_ASSERT(m.is_feasible(out.solution));
        return out;
    }

    // ---- block detection on the root core ----------------------------------
    cov::ComponentWorkspace ws;
    std::vector<cov::Partition> parts;
    if (opt.decompose) {
        const Index k = cov::find_components(root.core, ws);
        blocks_found_counter().add(k);
        cov::split_components(root.core, ws, k, parts);
    } else {
        parts.resize(1);
        parts[0].col_map.resize(root.core.num_cols());
        for (Index j = 0; j < root.core.num_cols(); ++j)
            parts[0].col_map[j] = j;
        parts[0].matrix = std::move(root.core);
    }
    // Remap block columns to original indices.
    for (auto& p : parts)
        for (auto& j : p.col_map) j = root.core_col_map[j];
    const Index num_blocks = static_cast<Index>(parts.size());
    out.blocks = num_blocks;

    // Charge the root search state (block matrices + component scratch)
    // against the byte accountant. A denial trips the governor — stage 4 of
    // the degradation ladder — so every task stops at its first poll and the
    // greedy/per-block incumbents below become the anytime answer.
    std::size_t root_bytes = 0;
    if (opt.governor != nullptr) {
        root_bytes = ws.memory_bytes();
        for (const auto& p : parts) root_bytes += p.matrix.memory_bytes();
        if (!opt.governor->charge_memory(root_bytes)) root_bytes = 0;
    }

    // ---- per-block prep: MIS lower bound, greedy upper bound ---------------
    std::atomic<std::size_t> nodes{0};
    std::atomic<bool> aborted{false};
    SharedBlocks shared(num_blocks, cost0);
    struct BlockInfo {
        Scope scope;
        Cost lb0 = 0;
        Cost ub0 = 0;
        std::atomic<int> tasks_left{0};
    };
    std::vector<BlockInfo> blocks(num_blocks);
    Cost ub_sum = 0;
    Cost lb_sum = 0;
    for (Index b = 0; b < num_blocks; ++b) {
        BlockInfo& bi = blocks[b];
        bi.lb0 = lagr::mis_lower_bound(parts[b].matrix).bound;
        GreedyResult g = chvatal_greedy(parts[b].matrix);
        for (auto& j : g.solution) j = parts[b].col_map[j];
        bi.ub0 = g.cost;
        shared.cur[b].store(g.cost, std::memory_order_relaxed);
        shared.lb[b].store(bi.lb0, std::memory_order_relaxed);
        ub_sum += g.cost;
        lb_sum += bi.lb0;
        bi.scope.seed(g.cost, std::move(g.solution), &shared, b, &nodes);
    }
    shared.cur_sum.store(ub_sum, std::memory_order_relaxed);
    shared.lb_sum.store(lb_sum, std::memory_order_relaxed);
    shared.incumbent.store(std::min(baseline.cost, cost0 + ub_sum),
                           std::memory_order_relaxed);

    // ---- task set: searchable blocks, optionally root-split ----------------
    struct Task {
        Index block;
        int branch;  // -1 = whole block, else one root branch
    };
    std::vector<Index> searchable;
    for (Index b = 0; b < num_blocks; ++b) {
        if (blocks[b].lb0 >= blocks[b].ub0) {
            // Greedy met the block bound: proven optimal without expansion.
            blocks_pruned_counter().add();
            continue;
        }
        searchable.push_back(b);
    }

    const unsigned want_threads = ThreadPool::resolve_threads(opt.num_threads);
    std::vector<Task> tasks;
    for (const Index b : searchable) tasks.push_back(Task{b, -1});
    // Root-split: when blocks alone cannot feed every worker, expand large
    // blocks one level and make each root branch its own (block, partial-
    // assignment) subtask. Requires the block to be a reduction fixpoint so
    // every subtask recomputes the identical branch set (blocks of a fully
    // reduced core are; a dominance-capped reduce voids the guarantee).
    if (want_threads > 1 && searchable.size() < want_threads &&
        !root.dominance_skipped) {
        tasks.clear();
        for (const Index b : searchable) {
            const CoverMatrix& bm = parts[b].matrix;
            if (bm.num_rows() < opt.parallel_min_rows) {
                tasks.push_back(Task{b, -1});
                continue;
            }
            Index shortest = 0;
            for (Index i = 1; i < bm.num_rows(); ++i)
                if (bm.row(i).size() < bm.row(shortest).size()) shortest = i;
            const int branches = static_cast<int>(bm.row(shortest).size());
            for (int k = 0; k < branches; ++k) tasks.push_back(Task{b, k});
        }
    }
    for (const Task& t : tasks) ++blocks[t.block].tasks_left;

    const unsigned workers =
        ThreadPool::resolve_threads(opt.num_threads, tasks.size());
    std::atomic<int> first_stop{static_cast<int>(Status::kOk)};

    const auto run_task = [&](const Task& t, Budget* gov) {
        BlockInfo& bi = blocks[t.block];
        {
            TRACE_SPAN("bnb.block");
            if (bi.scope.bound() <=
                shared.lb[t.block].load(std::memory_order_relaxed)) {
                // The block's share of the incumbent already meets its lower
                // bound: prune without expansion.
                if (t.branch <= 0) blocks_pruned_counter().add();
            } else {
                Ctx ctx(opt, gov, nodes, aborted);
                std::vector<Index> chosen;
                recurse(parts[t.block].matrix, parts[t.block].col_map, {}, 0,
                        chosen, ctx, bi.scope, t.branch);
                if (ctx.stop != Status::kOk) {
                    int expected = static_cast<int>(Status::kOk);
                    first_stop.compare_exchange_strong(
                        expected, static_cast<int>(ctx.stop),
                        std::memory_order_relaxed);
                }
            }
        }
        if (bi.tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            !aborted.load(std::memory_order_relaxed)) {
            // Block finished exhaustively: everything unexplored costs at
            // least min(best, final threshold), a valid proven bound.
            const Cost t_end = shared.threshold(t.block);
            shared.complete(t.block, std::min(bi.scope.best(), t_end));
        }
    };

    if (workers <= 1) {
        // Sequential reference execution: tasks in deterministic order, the
        // caller's governor charged directly (cumulative, like the
        // pre-parallel solver).
        for (const Task& t : tasks) run_task(t, opt.governor);
    } else {
        static stats::Counter& c_steals = stats::counter("bnb.steals");
        WorkDequeSet<Task> dq(workers);
        dq.add_pending(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i)
            dq.deque(i % workers).push_bottom(tasks[i]);
        ThreadPool pool(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.submit([&, w] {
                Task t{0, -1};
                bool stole = false;
                while (dq.acquire(w, t, stole)) {
                    if (stole) c_steals.add();
                    std::optional<Budget> forked;
                    Budget* gov = opt.governor;
                    if (gov != nullptr) {
                        forked.emplace(gov->fork());
                        gov = &*forked;
                    }
                    run_task(t, gov);
                    dq.finish();
                }
            });
        }
        pool.wait();
    }

    // ---- deterministic recombination ---------------------------------------
    // min(whole-matrix greedy, essentials + Σ per-block best), blocks
    // concatenated in index order. Exact in every interleaving: see the
    // header comment and DESIGN.md §11.
    Cost comp_cost = cost0;
    for (Index b = 0; b < num_blocks; ++b) comp_cost += blocks[b].scope.best();
    std::vector<Index> solution;
    if (comp_cost <= baseline.cost) {
        solution = root.essential_cols;
        for (Index b = 0; b < num_blocks; ++b) {
            const auto& s = blocks[b].scope.solution();
            solution.insert(solution.end(), s.begin(), s.end());
        }
    } else {
        solution = baseline.solution;
    }
    out.solution = m.make_irredundant(std::move(solution));
    out.cost = m.solution_cost(out.solution);
    out.nodes = nodes.load(std::memory_order_relaxed);
    out.optimal = !aborted.load(std::memory_order_relaxed);
    out.status = static_cast<Status>(first_stop.load(std::memory_order_relaxed));
    out.lower_bound =
        out.optimal
            ? out.cost
            : std::min(out.cost,
                       cost0 + shared.lb_sum.load(std::memory_order_relaxed));
    out.seconds = timer.seconds();
    if (opt.governor != nullptr) opt.governor->release_memory(root_bytes);
    UCP_ASSERT(m.is_feasible(out.solution));
    return out;
}

}  // namespace ucp::solver
