// Ablation study of the design choices DESIGN.md §5 calls out:
//   * the fixing score σ = c̃ − α·µ (α sweep, paper sets α = 2);
//   * the four greedy heuristic variants γ1..γ4 (§3.5), run in isolation;
//   * the Lagrangian / dual penalty tests on and off (§3.6);
//   * the stochastic restarts NumIter (§4).
// Workload: the cyclic cores of the difficult suite plus random covering
// matrices. Reported: total solution cost (lower is better) and total time.
#include <iostream>

#include "bench_common.hpp"
#include "cover/table_builder.hpp"
#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "lagrangian/greedy_heuristics.hpp"
#include "matrix/reductions.hpp"
#include "solver/bnb.hpp"
#include "solver/scg.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using ucp::TextTable;
using ucp::cov::CoverMatrix;

std::vector<CoverMatrix> workload() {
    std::vector<CoverMatrix> out;
    // Cyclic cores of the difficult suite.
    for (const auto& e : ucp::gen::difficult_cyclic_suite()) {
        const auto tab = ucp::cover::build_covering_table(e.pla);
        const auto red = ucp::cov::reduce(tab.matrix);
        if (red.core.num_rows() > 0) out.push_back(red.core);
    }
    // Random covering matrices of growing size.
    ucp::Rng seeds(77);
    for (int i = 0; i < 6; ++i) {
        ucp::gen::RandomScpOptions g;
        g.rows = 40 + 20 * i;
        g.cols = 60 + 30 * i;
        g.density = 0.06;
        g.min_cost = 1;
        g.max_cost = i % 2 == 0 ? 1 : 4;
        g.seed = seeds();
        out.push_back(ucp::gen::random_scp(g));
    }
    // Structured circulants.
    out.push_back(ucp::gen::cyclic_matrix(30, 7));
    out.push_back(ucp::gen::cyclic_matrix(45, 8));
    return out;
}

struct Tally {
    long cost = 0;
    long lb = 0;
    int proved = 0;
    double seconds = 0;
};

Tally run_all(const std::vector<CoverMatrix>& work,
              const ucp::solver::ScgOptions& opt) {
    Tally t;
    for (const auto& m : work) {
        ucp::Timer timer;
        const auto r = ucp::solver::solve_scg(m, opt);
        t.seconds += timer.seconds();
        t.cost += r.cost;
        t.lb += r.lower_bound;
        t.proved += r.proved_optimal ? 1 : 0;
    }
    return t;
}

}  // namespace

int main(int argc, char** argv) {
    ucp::bench::JsonReporter json(argc, argv, "ablation");
    std::cout << "=== Ablations of the SCG design choices ===\n\n";
    const auto work = workload();
    std::cout << "Workload: " << work.size()
              << " covering problems (difficult-suite cores, random SCP, "
                 "circulants)\n\n";

    {
        TextTable t({"alpha", "total cost", "total LB", "proved", "T(s)"});
        for (const double alpha : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
            ucp::solver::ScgOptions opt;
            opt.alpha = alpha;
            const Tally r = run_all(work, opt);
            t.add_row({TextTable::num(alpha, 1), std::to_string(r.cost),
                       std::to_string(r.lb), std::to_string(r.proved),
                       TextTable::num(r.seconds)});
        }
        std::cout << "-- fixing score sigma = c~ - alpha*mu (paper: alpha = 2) --\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    {
        TextTable t({"penalties", "total cost", "total LB", "proved", "T(s)"});
        for (const auto& [lagr, dual, label] :
             std::vector<std::tuple<bool, bool, std::string>>{
                 {false, false, "none"},
                 {true, false, "lagrangian"},
                 {false, true, "dual"},
                 {true, true, "both (paper)"}}) {
            ucp::solver::ScgOptions opt;
            opt.use_lagrangian_penalties = lagr;
            opt.use_dual_penalties = dual;
            const Tally r = run_all(work, opt);
            t.add_row({label, std::to_string(r.cost), std::to_string(r.lb),
                       std::to_string(r.proved), TextTable::num(r.seconds)});
        }
        std::cout << "-- penalty tests (section 3.6) --\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    {
        TextTable t({"NumIter", "total cost", "proved", "T(s)"});
        for (const int iters : {1, 2, 4, 8}) {
            ucp::solver::ScgOptions opt;
            opt.num_iter = iters;
            const Tally r = run_all(work, opt);
            t.add_row({std::to_string(iters), std::to_string(r.cost),
                       std::to_string(r.proved), TextTable::num(r.seconds)});
        }
        std::cout << "-- stochastic restarts (section 4) --\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    {
        // Parallel multi-start: more independent descents widen the explored
        // region; thread count must not change the answer (deterministic
        // reduction by (cost, start index)).
        TextTable t({"starts", "threads", "total cost", "proved", "T(s)"});
        for (const auto& [starts, threads] :
             std::vector<std::pair<int, int>>{{1, 1}, {4, 1}, {4, 0}, {8, 0}}) {
            ucp::solver::ScgOptions opt;
            opt.num_starts = starts;
            opt.num_threads = threads;  // 0 = auto (UCP_THREADS / hardware)
            json.begin_record();
            ucp::Timer timer;
            const Tally r = run_all(work, opt);
            const int used =
                static_cast<int>(ucp::resolve_threads(threads, starts));
            t.add_row({std::to_string(starts), std::to_string(used),
                       std::to_string(r.cost), std::to_string(r.proved),
                       TextTable::num(r.seconds)});
            // Records are keyed and pinned by the *requested* thread count
            // (t1 / tauto, "threads" 0 = auto) so the baseline gate reads
            // the same on every host.
            const std::string t_key =
                threads == 0 ? "auto" : std::to_string(threads);
            json.record("multistart_s" + std::to_string(starts) + "_t" + t_key,
                        static_cast<double>(r.cost), timer.seconds() * 1e3,
                        {{"starts", static_cast<double>(starts)},
                         {"threads", static_cast<double>(threads)}});
        }
        std::cout << "-- parallel multi-start (this repo's extension) --\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    {
        // Greedy variants in isolation (driving the auxiliary heuristic with
        // original costs, i.e. without the Lagrangian machinery).
        TextTable t({"gamma variant", "total cost", "T(s)"});
        for (int v = 0; v < ucp::lagr::kNumGreedyVariants; ++v) {
            long cost = 0;
            ucp::Timer timer;
            for (const auto& m : work) {
                std::vector<double> c(m.num_cols());
                for (ucp::cov::Index j = 0; j < m.num_cols(); ++j)
                    c[j] = static_cast<double>(m.cost(j));
                const auto sol = ucp::lagr::lagrangian_greedy(
                    m, c, static_cast<ucp::lagr::GreedyVariant>(v));
                cost += m.solution_cost(sol);
            }
            static const char* names[] = {"g1: c/n", "g2: c/log2(n+1)",
                                          "g3: c/(n*log2(n+1))",
                                          "g4: coverage-weighted"};
            t.add_row({names[v], std::to_string(cost),
                       TextTable::num(timer.seconds())});
        }
        std::cout << "-- greedy variants, plain costs (section 3.5) --\n";
        t.print(std::cout);
        std::cout << "\n(The SCG solver cycles all four variants on Lagrangian "
                     "costs; this table shows their standalone strength.)\n\n";
    }

    {
        // Lower-bound choice inside the exact solver: how much pruning each
        // bound of §3.4 buys. Restricted to the small/medium problems so the
        // weak bounds finish within the budget (a weak bound on the hardest
        // cores would run for minutes — which is itself the point).
        std::vector<CoverMatrix> small_work;
        for (const auto& m : work)
            if (m.num_rows() <= 160 && m.num_cols() <= 160)
                small_work.push_back(m);
        TextTable t({"B&B bound", "total nodes", "T(s)", "total cost"});
        const std::vector<std::pair<ucp::solver::BnbBound, std::string>>
            bounds{{ucp::solver::BnbBound::kMis, "independent set"},
                   {ucp::solver::BnbBound::kDualAscent,
                    "max(dual ascent, MIS)"},
                   {ucp::solver::BnbBound::kIncrementalMis,
                    "incremental MIS (Aura)"},
                   {ucp::solver::BnbBound::kLp, "max(LP relaxation, MIS)"},
                   {ucp::solver::BnbBound::kLagrangian,
                    "max(Lagrangian, MIS)"}};
        for (const auto& [bound, label] : bounds) {
            ucp::solver::BnbOptions opt;
            opt.bound = bound;
            std::size_t nodes = 0;
            long cost = 0;
            ucp::Timer timer;
            for (const auto& m : small_work) {
                // 15 s per solve; a Budget's deadline starts at construction.
                ucp::BudgetOptions limit;
                limit.deadline_seconds = 15.0;
                ucp::Budget governor(limit);
                opt.governor = &governor;
                const auto r = ucp::solver::solve_exact(m, opt);
                nodes += r.nodes;
                cost += r.cost;
            }
            t.add_row({label, std::to_string(nodes),
                       TextTable::num(timer.seconds()), std::to_string(cost)});
        }
        std::cout << "-- exact-solver lower bounds (section 3.4) --\n";
        t.print(std::cout);
        std::cout << "\n(Stronger bounds prune more nodes; the classical "
                     "claim is that dual ascent ~ MIS with uniform costs and "
                     "LP/Lagrangian prune hardest. Every node bound is "
                     "floored by the node's MIS, which it computes anyway.)\n";
    }
    return 0;
}
