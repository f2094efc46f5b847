#include "lagrangian/subgradient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/sparse_ops.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "matrix/sub_matrix.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace ucp::lagr {

using cov::Cost;
using cov::CoverMatrix;
using cov::Index;
using cov::SubMatrix;

namespace {

// Stopping rules of paper §3.2: the step coefficient t_k fell below t_min, or
// the gap UB − z_λ closed below δ.
constexpr double kTMin = 0.005;
constexpr double kDelta = 1e-3;

/// z_LP(λ) for a given λ; fills ws.ctilde (c − A'λ, defined on alive
/// columns) and ws.p (p*_j = [c̃_j ≤ 0], exactly 0 on dead columns).
/// `cost_d` caches the alive column costs as doubles (ws.orig_cost).
template <class Matrix>
double eval_lagrangian(const Matrix& a, const std::vector<double>& lambda,
                       const std::vector<double>& cost_d,
                       LagrangianWorkspace& ws) {
    const Index R = a.num_rows();
    const Index C = a.num_cols();
    fit(ws.ctilde, C);
    fit(ws.p, C);
    std::fill_n(ws.p.data(), C, char{0});
    kern::copy_masked(ws.ctilde.data(), cost_d.data(), a.col_alive_data(), C);
    double lam_sum = 0.0;
    for (Index i = 0; i < R; ++i) {
        if (!a.row_alive(i)) continue;
        lam_sum += lambda[i];
        const auto span = a.row(i);
        kern::span_sub(ws.ctilde.data(), span.data(), span.size(), lambda[i]);
    }
    double z = lam_sum;
    for (Index j = 0; j < C; ++j) {
        if (!a.col_alive(j)) continue;
        if (ws.ctilde[j] <= 0.0) {
            ws.p[j] = 1;
            z += ws.ctilde[j];
        }
    }
    return z;
}

}  // namespace

template <class Matrix>
SubgradientResult subgradient_ascent(const Matrix& a, LagrangianWorkspace& ws,
                                     const SubgradientOptions& opt,
                                     std::vector<double> lambda0,
                                     std::vector<double> mu0,
                                     std::vector<Index> incumbent) {
    TRACE_SPAN("subgradient");
    const Index R = a.num_rows();
    const Index C = a.num_cols();
    SubgradientResult out;

    if (a.num_live_rows() == 0) {  // trivially solved problem
        out.proved_optimal = true;
        out.lagrangian_costs.resize(C);
        for (Index j = 0; j < C; ++j)
            out.lagrangian_costs[j] = static_cast<double>(a.cost(j));
        out.mu.assign(C, 0.0);
        return out;
    }

    // c̄ for the dual-Lagrangian inner solution.
    fit(ws.cbar, R);
    for (Index i = 0; i < R; ++i) {
        if (!a.row_alive(i)) continue;
        double cb = std::numeric_limits<double>::infinity();
        for (const Index j : a.row(i))
            if (a.col_alive(j)) cb = std::min(cb, static_cast<double>(a.cost(j)));
        ws.cbar[i] = cb;
    }

    // --- initialisation (paper §3.3 / §3.5) -------------------------------------
    if (lambda0.empty()) lambda0 = dual_ascent(a, ws, {}, {}, opt.governor).m;
    UCP_REQUIRE(lambda0.size() == R, "lambda0 size mismatch");

    // Incumbent: greedy on original costs if none supplied.
    fit(ws.orig_cost, C);
    for (Index j = 0; j < C; ++j)
        if (a.col_alive(j)) ws.orig_cost[j] = static_cast<double>(a.cost(j));
    if (incumbent.empty())
        incumbent =
            lagrangian_greedy(a, ws, ws.orig_cost, GreedyVariant::kCostOverRows);
    UCP_REQUIRE(a.is_feasible(incumbent), "incumbent must be feasible");
    out.best_solution = incumbent;
    out.best_cost = a.solution_cost(incumbent);

    if (mu0.empty()) {
        mu0.assign(C, 0.0);
        for (const Index j : incumbent) mu0[j] = 1.0;
    }
    UCP_REQUIRE(mu0.size() == C, "mu0 size mismatch");

    std::vector<double> lambda = std::move(lambda0);
    std::vector<double> mu = std::move(mu0);
    out.lambda = lambda;
    out.mu = mu;

    double lb_best = -std::numeric_limits<double>::infinity();
    double w_ld_best = std::numeric_limits<double>::infinity();
    double t = opt.t0;
    int since_improve = 0;
    // The dual-Lagrangian side keeps its own step schedule: its progress
    // (w_LD decreasing) is independent of the primal bound's.
    double t_dual = opt.t0;
    int since_dual_improve = 0;

    const auto ceil_int = [](double v) {
        return static_cast<Cost>(std::ceil(v - 1e-6));
    };

    for (int k = 0; k < opt.max_iterations; ++k) {
        // A governor trip ends the ascent with the best-so-far incumbent and
        // bound — both stay valid (the incumbent is always feasible, lb_best
        // is a max over valid Lagrangian values).
        if (opt.governor != nullptr) {
            const Status st = opt.governor->charge_iteration();
            if (st != Status::kOk) {
                out.status = st;
                break;
            }
        }
        ++out.iterations;

        // ---- primal Lagrangian evaluation -------------------------------------
        const double z = eval_lagrangian(a, lambda, ws.orig_cost, ws);
        if (z > lb_best + 1e-12) {
            lb_best = z;
            out.lambda = lambda;
            out.lagrangian_costs.assign(ws.ctilde.begin(), ws.ctilde.end());
            since_improve = 0;
        } else {
            ++since_improve;
        }

        // ---- dual Lagrangian evaluation (LD) -----------------------------------
        double w_mu = 0.0;
        if (opt.use_dual_lagrangian) {
            fit(ws.m_star, R);
            fit(ws.etilde, R);
            // Dead rows keep m*_i = 0.0 exactly so the µ-update load scatter
            // below can skip them by value, and the unfiltered sums stay
            // bit-identical to the compacted accumulation.
            kern::fill(ws.m_star.data(), 0.0, R);
            kern::fill(ws.etilde.data(), 1.0, R);
            for (Index j = 0; j < C; ++j) {
                if (!a.col_alive(j) || mu[j] == 0.0) continue;
                w_mu += mu[j] * static_cast<double>(a.cost(j));
                const auto span = a.col(j);
                kern::span_sub(ws.etilde.data(), span.data(), span.size(),
                               mu[j]);
            }
            for (Index i = 0; i < R; ++i) {
                if (!a.row_alive(i)) continue;
                if (ws.etilde[i] > 0.0) {
                    ws.m_star[i] = ws.cbar[i];
                    w_mu += ws.etilde[i] * ws.cbar[i];
                }
            }
            if (w_mu < w_ld_best - 1e-12) {
                w_ld_best = w_mu;
                out.mu = mu;
                since_dual_improve = 0;
            } else {
                ++since_dual_improve;
            }
        }

        // ---- periodic primal heuristics ----------------------------------------
        if (k % opt.heuristic_period == 0) {
            const auto variant =
                static_cast<GreedyVariant>((k / opt.heuristic_period) %
                                           kNumGreedyVariants);
            auto sol = lagrangian_greedy(a, ws, ws.ctilde, variant);
            const Cost cost = a.solution_cost(sol);
            if (cost < out.best_cost) {
                out.best_cost = cost;
                out.best_solution = std::move(sol);
            }
        }

        if (opt.record_trace) {
            out.trace.push_back({k, z, std::max(lb_best, 0.0),
                                 opt.use_dual_lagrangian ? w_mu : 0.0,
                                 out.best_cost, t});
        }
        TRACE_ITER("subgradient", k, std::max(lb_best, 0.0),
                   static_cast<double>(out.best_cost), t,
                   static_cast<std::uint64_t>(a.num_live_rows()),
                   static_cast<std::uint64_t>(a.num_live_cols()),
                   trace::dd_cache_hit_rate());

        // ---- termination tests ---------------------------------------------------
        if (out.best_cost <= ceil_int(lb_best)) {  // ⌈LB⌉ proves optimality
            out.proved_optimal = true;
            break;
        }
        // UB on z*_P: the incumbent's value, improved by the dual-Lagrangian
        // bound when available (paper §3.3).
        double ub_est = static_cast<double>(out.best_cost);
        if (opt.use_dual_lagrangian) ub_est = std::min(ub_est, w_ld_best);
        if (ub_est - z < kDelta) break;
        if (t < kTMin) break;

        // ---- λ update, formula (2) -------------------------------------------------
        fit(ws.s, R);
        // s is exactly 0.0 on dead rows; dead columns never enter (p = 0).
        kern::select_fill(ws.s.data(), 1.0, 0.0, a.row_alive_data(), R);
        for (Index j = 0; j < C; ++j) {
            if (ws.p[j] == 0) continue;
            const auto span = a.col(j);
            kern::span_sub_masked(ws.s.data(), span.data(), span.size(), 1.0,
                                  a.row_alive_data());
        }
        const double norm2 = kern::dot_self(ws.s.data(), R);
        if (norm2 > 1e-12) {
            const double step = t * std::abs(ub_est - z) / norm2;
            kern::step_clamp_nonneg(lambda.data(), ws.s.data(), step,
                                    a.row_alive_data(), R);
        }

        // ---- µ update (dual side, driven down towards LB) --------------------------
        if (opt.use_dual_lagrangian) {
            fit(ws.g, C);
            // Accumulate the load Σ m*_i of each column by scattering the
            // active rows (typically a small fraction) in ascending order —
            // the same per-column addition order as a full gather over the
            // column spans, minus its exact +0.0 no-ops, so g is
            // bit-identical. The m* = 0.0 test also skips dead rows.
            kern::fill(ws.g.data(), 0.0, C);
            for (Index i = 0; i < R; ++i) {
                const double mi = ws.m_star[i];
                if (mi == 0.0) continue;
                const auto span = a.row(i);
                kern::span_add(ws.g.data(), span.data(), span.size(), mi);
            }
            kern::rsub_masked(ws.g.data(), ws.orig_cost.data(),
                              a.col_alive_data(), C);
            const double gnorm2 =
                kern::dot_self_masked(ws.g.data(), a.col_alive_data(), C);
            const double target = std::max(lb_best, 0.0);
            if (gnorm2 > 1e-12 && w_mu > target) {
                const double step = t_dual * (w_mu - target) / gnorm2;
                kern::step_clamp01(mu.data(), ws.g.data(), step,
                                   a.col_alive_data(), C);
            }
        }

        if (since_improve >= opt.halve_after) {
            t *= 0.5;
            since_improve = 0;
        }
        if (since_dual_improve >= opt.halve_after) {
            t_dual *= 0.5;
            since_dual_improve = 0;
        }
    }

    if (out.lagrangian_costs.empty()) {
        eval_lagrangian(a, out.lambda, ws.orig_cost, ws);
        out.lagrangian_costs.assign(ws.ctilde.begin(), ws.ctilde.end());
    }
    out.lb_fractional = std::max(lb_best, 0.0);
    out.lb = ceil_int(out.lb_fractional);
    out.w_ld_best = w_ld_best;
    if (out.best_cost <= out.lb) out.proved_optimal = true;
    static stats::Counter& c_calls = stats::counter("subgradient.calls");
    static stats::Counter& c_iters = stats::counter("subgradient.iterations");
    c_calls.add();
    c_iters.add(static_cast<std::uint64_t>(out.iterations));
    return out;
}

template SubgradientResult subgradient_ascent<CoverMatrix>(
    const CoverMatrix&, LagrangianWorkspace&, const SubgradientOptions&,
    std::vector<double>, std::vector<double>, std::vector<Index>);
template SubgradientResult subgradient_ascent<SubMatrix>(
    const SubMatrix&, LagrangianWorkspace&, const SubgradientOptions&,
    std::vector<double>, std::vector<double>, std::vector<Index>);

SubgradientResult subgradient_ascent(const CoverMatrix& a,
                                     const SubgradientOptions& opt,
                                     std::vector<double> lambda0,
                                     std::vector<double> mu0,
                                     std::vector<Index> incumbent) {
    LagrangianWorkspace ws;
    return subgradient_ascent(a, ws, opt, std::move(lambda0), std::move(mu0),
                              std::move(incumbent));
}

}  // namespace ucp::lagr
