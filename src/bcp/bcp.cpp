#include "bcp/bcp.hpp"

#include <algorithm>
#include <limits>

#include "util/timer.hpp"

namespace ucp::bcp {

BcpMatrix BcpMatrix::from_rows(Index num_cols,
                               std::vector<std::vector<Literal>> rows,
                               std::vector<Cost> costs) {
    BcpMatrix m;
    if (costs.empty()) costs.assign(num_cols, 1);
    UCP_REQUIRE(costs.size() == num_cols, "cost vector size mismatch");
    for (const Cost c : costs) UCP_REQUIRE(c > 0, "column costs must be positive");
    m.costs_ = std::move(costs);

    for (auto& r : rows) {
        std::sort(r.begin(), r.end());
        r.erase(std::unique(r.begin(), r.end()), r.end());
        UCP_REQUIRE(!r.empty(), "empty clause makes the problem infeasible");
        bool tautology = false;
        for (std::size_t t = 0; t + 1 < r.size(); ++t) {
            UCP_REQUIRE(r[t].col < num_cols, "column index out of range");
            if (r[t].col == r[t + 1].col) tautology = true;  // both phases
        }
        UCP_REQUIRE(r.back().col < num_cols, "column index out of range");
        if (!tautology) m.rows_.push_back(std::move(r));
    }
    return m;
}

BcpMatrix BcpMatrix::from_unate(const cov::CoverMatrix& m) {
    std::vector<std::vector<Literal>> rows(m.num_rows());
    for (Index i = 0; i < m.num_rows(); ++i)
        for (const Index j : m.row(i)) rows[i].push_back({j, true});
    std::vector<Cost> costs(m.costs());
    return from_rows(m.num_cols(), std::move(rows), std::move(costs));
}

bool BcpMatrix::row_satisfied(Index i, const std::vector<bool>& x) const {
    for (const Literal& l : rows_[i])
        if (x[l.col] == l.positive) return true;
    return false;
}

bool BcpMatrix::is_feasible(const std::vector<bool>& x) const {
    UCP_REQUIRE(x.size() == num_cols(), "assignment size mismatch");
    for (Index i = 0; i < num_rows(); ++i)
        if (!row_satisfied(i, x)) return false;
    return true;
}

Cost BcpMatrix::assignment_cost(const std::vector<bool>& x) const {
    Cost c = 0;
    for (Index j = 0; j < num_cols(); ++j)
        if (x[j]) c += costs_[j];
    return c;
}

Cost positive_mis_bound(const BcpMatrix& m) {
    // Collect all-positive clauses with their cheapest column.
    std::vector<Index> candidates;
    for (Index i = 0; i < m.num_rows(); ++i) {
        bool all_pos = true;
        for (const Literal& l : m.row(i)) all_pos &= l.positive;
        if (all_pos) candidates.push_back(i);
    }
    std::vector<bool> col_used(m.num_cols(), false);
    Cost bound = 0;
    for (const Index i : candidates) {
        bool disjoint = true;
        Cost cheapest = std::numeric_limits<Cost>::max();
        for (const Literal& l : m.row(i)) {
            if (col_used[l.col]) disjoint = false;
            cheapest = std::min(cheapest, m.cost(l.col));
        }
        if (!disjoint) continue;
        for (const Literal& l : m.row(i)) col_used[l.col] = true;
        bound += cheapest;
    }
    return bound;
}

namespace {

enum : std::int8_t { kUnset = -1 };

struct SearchCtx {
    SearchCtx(const BcpMatrix& matrix, const BcpOptions& options)
        : m(matrix), opt(options) {}

    const BcpMatrix& m;
    const BcpOptions& opt;
    Timer timer;
    std::size_t nodes = 0;
    bool aborted = false;
    bool found = false;
    Cost best_cost = 0;
    std::vector<bool> best;

    bool out_of_budget() { return nodes >= opt.max_nodes; }
};

/// Unit propagation to a fixed point. Returns false on conflict. Adds the
/// cost of every variable forced to 1 into `cost`.
bool propagate(const BcpMatrix& m, std::vector<std::int8_t>& assign,
               Cost& cost) {
    bool changed = true;
    while (changed) {
        changed = false;
        for (Index i = 0; i < m.num_rows(); ++i) {
            bool satisfied = false;
            int unassigned = 0;
            Literal last{};
            for (const Literal& l : m.row(i)) {
                const std::int8_t a = assign[l.col];
                if (a == kUnset) {
                    ++unassigned;
                    last = l;
                } else if ((a == 1) == l.positive) {
                    satisfied = true;
                    break;
                }
            }
            if (satisfied) continue;
            if (unassigned == 0) return false;  // falsified clause
            if (unassigned == 1) {
                assign[last.col] = last.positive ? 1 : 0;
                if (last.positive) cost += m.cost(last.col);
                changed = true;
            }
        }
    }
    return true;
}

/// Bound from still-unsatisfied clauses whose remaining literals are all
/// positive (negative remaining literals can be honoured for free).
Cost remaining_positive_bound(const BcpMatrix& m,
                              const std::vector<std::int8_t>& assign) {
    std::vector<bool> col_used(m.num_cols(), false);
    Cost bound = 0;
    for (Index i = 0; i < m.num_rows(); ++i) {
        bool satisfied = false;
        bool all_pos = true;
        bool disjoint = true;
        Cost cheapest = std::numeric_limits<Cost>::max();
        for (const Literal& l : m.row(i)) {
            const std::int8_t a = assign[l.col];
            if (a != kUnset) {
                if ((a == 1) == l.positive) {
                    satisfied = true;
                    break;
                }
                continue;  // falsified literal: not "remaining"
            }
            if (!l.positive) {
                all_pos = false;
                break;
            }
            if (col_used[l.col]) disjoint = false;
            cheapest = std::min(cheapest, m.cost(l.col));
        }
        if (satisfied || !all_pos || !disjoint) continue;
        for (const Literal& l : m.row(i))
            if (assign[l.col] == kUnset) col_used[l.col] = true;
        bound += cheapest;
    }
    return bound;
}

void search(SearchCtx& ctx, std::vector<std::int8_t> assign, Cost cost) {
    if (ctx.aborted || ctx.out_of_budget()) {
        ctx.aborted = true;
        return;
    }
    ++ctx.nodes;
    const BcpMatrix& m = ctx.m;

    if (!propagate(m, assign, cost)) return;
    if (ctx.found && cost >= ctx.best_cost) return;
    if (cost + remaining_positive_bound(m, assign) >=
            (ctx.found ? ctx.best_cost : std::numeric_limits<Cost>::max()))
        return;

    // Find a shortest unsatisfied clause to branch on.
    Index branch_row = m.num_rows();
    std::size_t branch_size = SIZE_MAX;
    for (Index i = 0; i < m.num_rows(); ++i) {
        bool satisfied = false;
        std::size_t open = 0;
        for (const Literal& l : m.row(i)) {
            const std::int8_t a = assign[l.col];
            if (a == kUnset) ++open;
            else if ((a == 1) == l.positive) {
                satisfied = true;
                break;
            }
        }
        if (satisfied) continue;
        UCP_ASSERT(open >= 2);  // unit clauses were propagated
        if (open < branch_size) {
            branch_size = open;
            branch_row = i;
        }
    }

    if (branch_row == m.num_rows()) {
        // All clauses satisfied: complete with zeros (free).
        std::vector<bool> x(m.num_cols(), false);
        for (Index j = 0; j < m.num_cols(); ++j) x[j] = assign[j] == 1;
        UCP_ASSERT(m.is_feasible(x));
        if (!ctx.found || cost < ctx.best_cost) {
            ctx.found = true;
            ctx.best_cost = cost;
            ctx.best = std::move(x);
        }
        return;
    }

    // Branch on the first unassigned literal: satisfying phase first.
    Literal pick{};
    for (const Literal& l : m.row(branch_row))
        if (assign[l.col] == kUnset) {
            pick = l;
            break;
        }
    {
        auto a1 = assign;
        a1[pick.col] = pick.positive ? 1 : 0;
        search(ctx, std::move(a1),
               cost + (pick.positive ? m.cost(pick.col) : 0));
    }
    {
        auto a0 = assign;
        a0[pick.col] = pick.positive ? 0 : 1;
        search(ctx, std::move(a0),
               cost + (pick.positive ? 0 : m.cost(pick.col)));
    }
}

/// Clause dominance: clause i is implied by clause k when lits(k) ⊆ lits(i).
BcpMatrix row_dominance(const BcpMatrix& m) {
    std::vector<bool> dead(m.num_rows(), false);
    for (Index i = 0; i < m.num_rows(); ++i) {
        if (dead[i]) continue;
        for (Index k = 0; k < m.num_rows(); ++k) {
            if (i == k || dead[k]) continue;
            const auto& a = m.row(i);
            const auto& b = m.row(k);
            if (b.size() > a.size()) continue;
            if (b == a && k > i) continue;  // equal clauses: keep the first
            if (std::includes(a.begin(), a.end(), b.begin(), b.end()))
                dead[i] = true;
        }
    }
    std::vector<std::vector<Literal>> rows;
    for (Index i = 0; i < m.num_rows(); ++i)
        if (!dead[i]) rows.push_back(m.row(i));
    std::vector<Cost> costs(m.costs());
    return BcpMatrix::from_rows(m.num_cols(), std::move(rows), std::move(costs));
}

}  // namespace

BcpResult solve_bcp(const BcpMatrix& m, const BcpOptions& opt) {
    const BcpMatrix work = opt.use_row_dominance ? row_dominance(m) : m;
    SearchCtx ctx{work, opt};
    ctx.best_cost = 0;

    std::vector<std::int8_t> assign(work.num_cols(), kUnset);
    search(ctx, std::move(assign), 0);

    BcpResult out;
    out.nodes = ctx.nodes;
    out.seconds = ctx.timer.seconds();
    out.optimal = !ctx.aborted;
    out.feasible = ctx.found;
    out.lower_bound = positive_mis_bound(work);
    if (ctx.found) {
        out.assignment = std::move(ctx.best);
        out.cost = ctx.best_cost;
        if (out.optimal) out.lower_bound = out.cost;
        UCP_ASSERT(m.is_feasible(out.assignment));
        UCP_ASSERT(m.assignment_cost(out.assignment) == out.cost);
    }
    return out;
}

}  // namespace ucp::bcp
