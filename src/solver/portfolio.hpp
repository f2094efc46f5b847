// Portfolio solver: one SCG solve, then an RWLS local-search polish of its
// cover, under one shared Budget (docs/ALGORITHM.md, "Beyond the
// constructive scheme"; DESIGN.md §14).
//
// The phases run in a fixed order so the result is bit-identical for every
// thread count:
//
//   1. SCG — exactly the configured multi-start solve (so the portfolio's
//      answer can never be worse than SCG alone at the same options);
//   2. RWLS polish — `rwls_tasks` independent local searches fanned out by
//      parallel_map, every task seeded from the best SCG cover (cross-seed
//      SCG → RWLS) with its own SplitMix64 seed stream and its own fork() of
//      the governor; results reduce by (cost, task index);
//   3. optional exact finish — branch-and-bound with the best cover so far
//      as its root incumbent.
//
// Each later phase replaces the incumbent only when strictly better, and the
// lower bound is the max over phases, so the anytime contract holds: a
// governor trip at any point leaves a feasible cover and a valid bound.
#pragma once

#include <vector>

#include "search/rwls.hpp"
#include "solver/bnb.hpp"
#include "solver/scg.hpp"

namespace ucp::solver {

struct PortfolioOptions {
    /// Phase-1 options, passed through verbatim — the portfolio's SCG leg is
    /// the SCG-alone solve, which is what makes "portfolio ≤ SCG at equal
    /// options" hold by construction.
    ScgOptions scg{};
    /// Per-task template for the polish phase. `initial` is overwritten with
    /// the best SCG cover; task t uses stream_seed(rwls.seed, t) (util/rng.hpp,
    /// the multi-start seed convention).
    search::RwlsOptions rwls{};
    /// Independent RWLS polish tasks (0 disables the polish phase).
    int rwls_tasks = 4;
    /// Worker threads for the polish fan-out. ≤ 0 = auto
    /// (default_threads()), 1 = serial. Results are bit-identical
    /// for every value.
    int num_threads = 0;
    /// Phase 3: finish with branch-and-bound warm-started from the portfolio
    /// incumbent. Off by default — exactness costs exponential time on hard
    /// cores; the portfolio is a heuristic first.
    bool finish_exact = false;
    /// Phase-3 options; the portfolio overwrites their warm incumbent.
    BnbOptions exact{};
    /// Shared governor: polled between phases, and every SCG start / RWLS
    /// task runs under its own fork() (shared deadline + cancel token,
    /// private counters). A trip skips the remaining phases and returns the
    /// best cover found so far. Not owned; nullptr = ungoverned.
    Budget* governor = nullptr;
};

struct PortfolioResult {
    std::vector<cov::Index> solution;  ///< original column indices, feasible
    cov::Cost cost = 0;
    cov::Cost lower_bound = 0;  ///< max over phases (each is globally valid)
    bool proved_optimal = false;
    /// Which phase produced `solution`: 1 = SCG, 2 = RWLS polish, 3 = exact
    /// finish.
    int winner_phase = 1;
    int rwls_task_of_best = -1;  ///< winning polish task, -1 when phase 2 lost
    cov::Cost scg_cost = 0;      ///< phase-1 cost (the SCG-alone answer)
    cov::Cost rwls_cost = 0;     ///< best cost after the polish phase
    Status status = Status::kOk;  ///< first non-kOk phase status, else kOk
    double seconds = 0.0;
};

PortfolioResult solve_portfolio(const cov::CoverMatrix& m,
                                const PortfolioOptions& opt = {});

}  // namespace ucp::solver
