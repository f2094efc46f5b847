// Subgradient ascent on the primal and dual Lagrangian relaxations
// (paper §3.1–§3.3).
//
// Primal side:  (LP)  min c̃'p + λ'e,  0 ≤ p ≤ e,  c̃ = c − A'λ
//   optimal p*_j = [c̃_j ≤ 0];  z_LP(λ) = Σ_j min(c̃_j, 0) + Σ_i λ_i ≤ z*_P
//   λ is updated with formula (2): step · subgradient · (UB − z)/‖s‖².
//
// Dual side:    (LD)  max ẽ'm + µ'c,  0 ≤ m ≤ c̄,  ẽ = e − Aµ
//   optimal m*_i = c̄_i·[ẽ_i > 0];  w_LD(µ) = Σ_i max(ẽ_i,0)·c̄_i + µ'c ≥ z*_P
//   µ is driven *down* towards z*_P by the symmetric subgradient step.
//
// Each side feeds the other: w_LD improves the UB used in (2), z_LP improves
// the target used for µ. The iteration also runs the greedy Lagrangian
// heuristics periodically to improve the incumbent, and applies the
// Lagrangian penalty tests (§3.6) through the penalties module.
#pragma once

#include <cstdint>
#include <vector>

#include "lagrangian/greedy_heuristics.hpp"
#include "lagrangian/workspace.hpp"
#include "matrix/sparse_matrix.hpp"
#include "util/budget.hpp"

namespace ucp::lagr {

struct SubgradientOptions {
    double t0 = 2.0;           ///< initial step coefficient t_k
    int halve_after = 15;      ///< N_t: halve t_k after this many non-improving steps
    int max_iterations = 600;
    int heuristic_period = 15; ///< run the greedy heuristics every k iterations
    bool use_dual_lagrangian = true;  ///< maintain µ via (LD); off = primal only
    bool record_trace = false;       ///< fill SubgradientResult::trace
    /// Optional resource governor. Each iteration is charged against it; a
    /// trip (deadline/cancel/iteration cap) breaks the loop and the result
    /// carries the best-so-far incumbent + bound with the trip Status. Not
    /// owned; nullptr = ungoverned (bit-identical to the pre-governor code).
    Budget* governor = nullptr;
};

/// One iteration snapshot (for convergence plots / diagnostics).
struct SubgradientTracePoint {
    int iteration = 0;
    double z_lambda = 0.0;   ///< z_LP(λ_k), the oscillating Lagrangian value
    double lb_best = 0.0;    ///< best bound so far (monotone)
    double w_ld = 0.0;       ///< dual-Lagrangian value w_LD(µ_k) (0 if off)
    cov::Cost incumbent = 0; ///< best feasible solution value so far
    double step = 0.0;       ///< current step coefficient t_k
};

struct SubgradientResult {
    std::vector<double> lambda;  ///< best primal multipliers found
    std::vector<double> mu;      ///< best dual-Lagrangian multipliers (column side)
    double lb_fractional = 0.0;  ///< best z_LP(λ) seen
    cov::Cost lb = 0;            ///< ⌈lb_fractional⌉ (costs are integral)
    std::vector<cov::Index> best_solution;  ///< best feasible solution found
    cov::Cost best_cost = 0;
    std::vector<double> lagrangian_costs;  ///< c̃ at the best λ
    double w_ld_best = 0.0;  ///< best (lowest) dual-Lagrangian value ≥ z*_P
    int iterations = 0;
    bool proved_optimal = false;  ///< z_best == ⌈LB⌉
    Status status = Status::kOk;  ///< non-kOk when a governor trip ended the run
    std::vector<SubgradientTracePoint> trace;  ///< when opt.record_trace
};

/// Runs the coupled subgradient scheme on covering matrix `a`.
/// `lambda0` warm-starts λ (empty = dual-ascent initialisation, §3.3);
/// `mu0` warm-starts µ (empty = indicator of a greedy primal solution);
/// `incumbent` + `incumbent_cost` seed the upper bound when available.
///
/// `Matrix` is CoverMatrix or SubMatrix. On a live view, λ/µ and every
/// returned vector stay base-indexed (dead slots frozen / never read) and
/// the floating-point trajectory is bit-identical to running on the
/// compacted matrix. All per-iteration scratch lives in `ws`: after the
/// workspace has seen the largest core once, iterations perform zero heap
/// allocations (pinned by the "lagr.workspace_allocs" counter).
template <class Matrix>
SubgradientResult subgradient_ascent(const Matrix& a, LagrangianWorkspace& ws,
                                     const SubgradientOptions& opt = {},
                                     std::vector<double> lambda0 = {},
                                     std::vector<double> mu0 = {},
                                     std::vector<cov::Index> incumbent = {});

/// Convenience overload with a throwaway workspace.
SubgradientResult subgradient_ascent(const cov::CoverMatrix& a,
                                     const SubgradientOptions& opt = {},
                                     std::vector<double> lambda0 = {},
                                     std::vector<double> mu0 = {},
                                     std::vector<cov::Index> incumbent = {});

}  // namespace ucp::lagr
