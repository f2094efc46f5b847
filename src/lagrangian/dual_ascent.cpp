#include "lagrangian/dual_ascent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "kernels/sparse_ops.hpp"
#include "matrix/sub_matrix.hpp"
#include "util/trace.hpp"

namespace ucp::lagr {

using cov::CoverMatrix;
using cov::Index;
using cov::SubMatrix;

template <class Matrix>
DualAscentResult dual_ascent(const Matrix& a, LagrangianWorkspace& ws,
                             const std::vector<double>& warm_start,
                             const std::vector<double>& cost_override,
                             Budget* governor) {
    TRACE_SPAN("dual_ascent");
    const Index R = a.num_rows();
    const Index C = a.num_cols();

    fit(ws.da_cost, C);
    std::vector<double>& cost = ws.da_cost;
    if (cost_override.empty()) {
        for (Index j = 0; j < C; ++j)
            if (a.col_alive(j)) cost[j] = static_cast<double>(a.cost(j));
    } else {
        UCP_REQUIRE(cost_override.size() == C, "cost override size mismatch");
        std::copy(cost_override.begin(), cost_override.end(), cost.begin());
    }

    // c̄_i = min over alive columns covering row i (∞-cost columns ignored).
    fit(ws.da_cbar, R);
    std::vector<double>& cbar = ws.da_cbar;
    for (Index i = 0; i < R; ++i) {
        if (!a.row_alive(i)) continue;
        double cb = std::numeric_limits<double>::infinity();
        for (const Index j : a.row(i))
            if (a.col_alive(j)) cb = std::min(cb, cost[j]);
        // A row coverable only by +∞-cost columns makes the dual unbounded
        // (the primal with those columns forbidden is infeasible); a huge
        // finite value propagates the right conclusion to the penalty tests.
        cbar[i] = std::isfinite(cb) ? cb : 1e18;
    }

    // Dead rows keep m_i = 0.0 exactly: the column-load sums below run over
    // the unfiltered base adjacency, and adding an exact +0.0 leaves every
    // partial sum bit-identical to the filtered (compacted) accumulation.
    fit(ws.da_m, R);
    std::vector<double>& m = ws.da_m;
    if (warm_start.empty()) {
        for (Index i = 0; i < R; ++i) m[i] = a.row_alive(i) ? cbar[i] : 0.0;
    } else {
        UCP_REQUIRE(warm_start.size() == R, "warm start size mismatch");
        for (Index i = 0; i < R; ++i)
            m[i] = a.row_alive(i) ? std::clamp(warm_start[i], 0.0, cbar[i]) : 0.0;
    }

    // Column loads: Σ_i a_ij m_i.
    fit(ws.da_load, C);
    std::vector<double>& load = ws.da_load;
    kern::fill(load.data(), 0.0, C);
    for (Index i = 0; i < R; ++i) {
        if (!a.row_alive(i)) continue;
        const auto span = a.row(i);
        kern::span_add(load.data(), span.data(), span.size(), m[i]);
    }

    // ---- phase 1: decrease until A'm ≤ c, most-covered rows first -----------
    fit(ws.da_order, static_cast<std::size_t>(a.num_live_rows()));
    std::vector<Index>& order = ws.da_order;
    {
        std::size_t k = 0;
        for (Index i = 0; i < R; ++i)
            if (a.row_alive(i)) order[k++] = i;
    }
    // (size, row index) order: what a stable sort of the ascending rows
    // gives, without its merge buffer.
    std::sort(order.begin(), order.end(), [&](Index x, Index y) {
        const Index sx = a.live_row_size(x), sy = a.live_row_size(y);
        return sx != sy ? sx > sy : x < y;
    });
    for (const Index i : order) {
        if (m[i] <= 0.0) continue;
        double worst = 0.0;
        for (const Index j : a.row(i)) {
            if (!a.col_alive(j)) continue;
            if (!std::isfinite(cost[j])) continue;  // relaxed constraint
            worst = std::max(worst, load[j] - cost[j]);
        }
        if (worst > 0.0) {
            const double dec = std::min(m[i], worst);
            m[i] -= dec;
            const auto span = a.row(i);
            kern::span_sub(load.data(), span.data(), span.size(), dec);
        }
    }
    // Phase 1 guarantees: every column containing a still-positive variable is
    // satisfied; a final sweep handles rounding slack.
    // ---- phase 2: increase in increasing occurrence order ---------------------
    // On a tripped governor the re-increase is skipped: the repaired m is
    // already dual feasible, so stopping here keeps the bound valid.
    if (governor == nullptr || governor->check() == Status::kOk) {
        std::sort(order.begin(), order.end(), [&](Index x, Index y) {
            const Index sx = a.live_row_size(x), sy = a.live_row_size(y);
            return sx != sy ? sx < sy : x < y;
        });
        for (const Index i : order) {
            double slack = cbar[i] - m[i];  // respect the m ≤ c̄ box
            for (const Index j : a.row(i)) {
                if (!a.col_alive(j)) continue;
                if (!std::isfinite(cost[j])) continue;
                slack = std::min(slack, cost[j] - load[j]);
            }
            if (slack > 1e-12) {
                m[i] += slack;
                const auto span = a.row(i);
                kern::span_add(load.data(), span.data(), span.size(), slack);
            }
        }
    }

    DualAscentResult out;
    out.m.assign(m.begin(), m.end());
    double value = 0.0;
    for (Index i = 0; i < R; ++i)
        if (a.row_alive(i)) value += m[i];
    out.value = value;
    TRACE_ITER("dual_ascent", 0, out.value, 0.0, 0.0,
               static_cast<std::uint64_t>(a.num_live_rows()),
               static_cast<std::uint64_t>(a.num_live_cols()),
               trace::dd_cache_hit_rate());
    return out;
}

template DualAscentResult dual_ascent<CoverMatrix>(
    const CoverMatrix&, LagrangianWorkspace&, const std::vector<double>&,
    const std::vector<double>&, Budget*);
template DualAscentResult dual_ascent<SubMatrix>(
    const SubMatrix&, LagrangianWorkspace&, const std::vector<double>&,
    const std::vector<double>&, Budget*);

DualAscentResult dual_ascent(const CoverMatrix& a,
                             const std::vector<double>& warm_start,
                             const std::vector<double>& cost_override) {
    LagrangianWorkspace ws;
    return dual_ascent(a, ws, warm_start, cost_override);
}

MisResult mis_lower_bound(const CoverMatrix& a) {
    const Index R = a.num_rows();

    // Cheapest covering column per row; rows with expensive cheap-cover and
    // low connectivity make good independent-set members.
    std::vector<cov::Cost> cheapest(R);
    for (Index i = 0; i < R; ++i) {
        cov::Cost c = std::numeric_limits<cov::Cost>::max();
        for (const Index j : a.row(i)) c = std::min(c, a.cost(j));
        cheapest[i] = c;
    }
    // Row degree in the intersection graph ≈ Σ over its columns of column size.
    std::vector<std::size_t> weight(R, 0);
    for (Index i = 0; i < R; ++i)
        for (const Index j : a.row(i)) weight[i] += a.col(j).size();

    // Prefer high bound contribution, then low connectivity; ties by row.
    // The key is computed once per row, so the sort compares stored doubles.
    std::vector<std::pair<double, Index>> order(R);
    for (Index i = 0; i < R; ++i)
        order[i] = {static_cast<double>(cheapest[i]) /
                        static_cast<double>(weight[i]),
                    i};
    std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
    });

    MisResult out;
    std::vector<bool> col_blocked(a.num_cols(), false);
    for (const auto& [key, i] : order) {
        bool independent = true;
        for (const Index j : a.row(i))
            if (col_blocked[j]) {
                independent = false;
                break;
            }
        if (!independent) continue;
        out.rows.push_back(i);
        out.bound += cheapest[i];
        for (const Index j : a.row(i)) col_blocked[j] = true;
    }
    return out;
}

}  // namespace ucp::lagr
