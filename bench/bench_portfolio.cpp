// Portfolio head-to-head on the unicost set-cover family: SCG alone vs RWLS
// alone vs the SCG+RWLS portfolio, same instances, equal work knobs. The
// portfolio's phase 1 IS the SCG-alone configuration, so its cost can never
// exceed the SCG column — the bench exits non-zero if it ever does. The
// recorded solution fields (per-leg costs, lower bound, winner phase) are
// deterministic and pinned by scripts/check_baselines.py.
//
// `--deadline-ms=N` switches to the anytime drill: every instance runs under
// a wall-clock Budget and must return a feasible cover with status ok or
// deadline. CI points this mode at a non-baseline JSON path (a tripped
// status would fail the baseline gate by design).
#include "bench_common.hpp"

#include "gen/scp_gen.hpp"
#include "search/rwls.hpp"
#include "solver/greedy.hpp"
#include "solver/portfolio.hpp"
#include "util/budget.hpp"

int main(int argc, char** argv) {
    using ucp::TextTable;
    using ucp::cov::Cost;
    ucp::bench::JsonReporter json(argc, argv, "portfolio");
    const ucp::Options opts(argc, argv);
    const long deadline_ms = opts.get_int("deadline-ms", 0);

    ucp::bench::print_header(
        "Unicost SCP — SCG alone vs RWLS alone vs portfolio",
        "Unit costs, large cyclic cores: the regime where row-weighting local\n"
        "search closes gaps constructive fixing cannot (docs/ALGORITHM.md).");

    ucp::solver::PortfolioOptions base;
    base.scg.num_iter = 2;
    base.scg.num_starts = json.starts();
    base.scg.num_threads = json.threads();
    base.num_threads = json.threads();
    base.rwls_tasks = 4;
    base.rwls.max_steps = 30'000;

    TextTable t({"instance", "rows", "cols", "greedy", "SCG(LB)", "RWLS",
                 "portfolio", "phase", "T(ms)"});
    bool portfolio_lost = false;
    int strictly_better = 0;

    for (const auto& entry : ucp::gen::unicost_suite()) {
        const auto& m = entry.matrix;
        const auto greedy = ucp::solver::chvatal_greedy(m);

        // Leg 1: SCG alone, exactly the portfolio's phase-1 options.
        const auto scg = ucp::solver::solve_scg(m, base.scg);

        // Leg 2: RWLS alone on the full matrix, equal total step budget
        // (tasks × per-task steps) so neither side gets more swap work.
        ucp::search::RwlsOptions ralone = base.rwls;
        ralone.max_steps =
            base.rwls.max_steps * static_cast<std::uint64_t>(base.rwls_tasks);
        ralone.target_lower_bound = scg.lower_bound;
        const auto rwls = ucp::search::rwls_improve(m, ralone);

        // Leg 3: the portfolio (optionally governed in anytime mode).
        ucp::solver::PortfolioOptions opt = base;
        std::optional<ucp::Budget> governor;
        if (deadline_ms > 0) {
            ucp::BudgetOptions bo;
            bo.deadline_seconds = static_cast<double>(deadline_ms) / 1e3;
            governor.emplace(bo);
            opt.governor = &*governor;
        }
        ucp::Timer timer;
        const auto port = ucp::solver::solve_portfolio(m, opt);
        const double wall_ms = timer.seconds() * 1e3;

        if (!m.is_feasible(port.solution)) {
            std::cerr << "BUG: infeasible portfolio cover on " << entry.name
                      << '\n';
            return 1;
        }
        // Governed runs may truncate phase 1 below the ungoverned SCG leg,
        // so the ≤ invariant only holds (by construction) when ungoverned.
        if (deadline_ms == 0 && port.cost > scg.cost) {
            std::cerr << "BUG: portfolio (" << port.cost << ") lost to SCG ("
                      << scg.cost << ") on " << entry.name << '\n';
            portfolio_lost = true;
        }
        if (port.cost < scg.cost) ++strictly_better;
        const char* status = "ok";
        if (port.status == ucp::Status::kDeadline) status = "deadline";
        else if (port.status == ucp::Status::kCancelled) status = "cancelled";
        else if (port.status != ucp::Status::kOk) status = "error";
        if (deadline_ms > 0 && port.status != ucp::Status::kOk &&
            port.status != ucp::Status::kDeadline) {
            std::cerr << "BUG: anytime run on " << entry.name
                      << " ended with status " << status << '\n';
            return 1;
        }

        t.add_row({entry.name, std::to_string(m.num_rows()),
                   std::to_string(m.num_cols()), std::to_string(greedy.cost),
                   ucp::bench::with_bound(scg.cost, scg.lower_bound,
                                          scg.proved_optimal),
                   std::to_string(rwls.cost),
                   ucp::bench::starred(port.cost, port.proved_optimal),
                   std::to_string(port.winner_phase),
                   TextTable::num(wall_ms, 1)});
        json.record(
            entry.name, static_cast<double>(port.cost), wall_ms,
            {{"greedy_cost", static_cast<double>(greedy.cost)},
             {"scg_cost", static_cast<double>(scg.cost)},
             {"rwls_cost", static_cast<double>(rwls.cost)},
             {"lower_bound", static_cast<double>(port.lower_bound)},
             {"proved", port.proved_optimal ? 1.0 : 0.0},
             {"winner_phase", static_cast<double>(port.winner_phase)}},
            {{"status", status}});
    }

    t.print(std::cout);
    std::cout << "\nportfolio strictly better than SCG alone on "
              << strictly_better << " instances\n"
              << "(phase: 1 = SCG leg won outright, 2 = RWLS polish improved "
                 "it;\n phase 3, the exact finish, is off in this bench)\n";
    return portfolio_lost ? 1 : 0;
}
