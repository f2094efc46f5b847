// Supplementary experiment: instances where the bounds CANNOT prove
// optimality — the situation behind the paper's parenthesised rows
// ("96(92)") and "H" best-known markers in Tables 3–4.
//
// Steiner-triple covering systems are the canonical family: the LP optimum
// is |points|/3 while the integer optimum is far above it (STS(9): 5 vs 3;
// STS(27): 18 vs 9), and none of the classical reductions fire. The SCG
// heuristic is expected to find the true optimum while honestly reporting a
// lower bound near the LP value; the exact solver needs a real search.
#include <iostream>

#include "bench_common.hpp"
#include "cover/zdd_cover.hpp"
#include "gen/scp_gen.hpp"
#include "lagrangian/dual_ascent.hpp"
#include "lp/simplex.hpp"
#include "matrix/reductions.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "solver/scg.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using ucp::TextTable;
    ucp::bench::JsonReporter json(argc, argv, "hard_gap");
    std::cout
        << "=== Hard-gap instances: Steiner-triple covering ===\n"
        << "(the regime behind the paper's unproved rows: LB < optimum, so\n"
        << "the heuristic reports Sol(LB) and exact search must close the "
           "gap)\n\n";

    TextTable t({"instance", "rows", "cols", "core", "LP", "SCG Sol(LB)",
                 "greedy", "exact", "nodes", "exact T(s)"});
    for (const int dim : {2, 3}) {
        const auto m = ucp::gen::steiner_cover(dim);
        const auto red = ucp::cov::reduce(m);
        const auto lp = ucp::lp::solve_covering_lp(m);
        ucp::Timer tscg;
        const auto scg = ucp::solver::solve_scg(m);
        json.record(std::string("STS(") + (dim == 2 ? "9" : "27") + ")",
                    static_cast<double>(scg.cost), tscg.seconds() * 1e3,
                    {{"lower_bound", static_cast<double>(scg.lower_bound)},
                     {"lp", lp.objective}});
        const auto greedy = ucp::solver::chvatal_greedy(m);
        // A Budget's deadline starts at construction: build it right before
        // the solve it bounds.
        ucp::BudgetOptions limit;
        limit.deadline_seconds = 120.0;
        ucp::Budget governor(limit);
        ucp::solver::BnbOptions bo;
        bo.governor = &governor;
        const auto exact = ucp::solver::solve_exact(m, bo);

        t.add_row({std::string("STS(") + (dim == 2 ? "9" : "27") + ")",
                   std::to_string(m.num_rows()), std::to_string(m.num_cols()),
                   std::to_string(red.core.num_rows()) + "x" +
                       std::to_string(red.core.num_cols()),
                   TextTable::num(lp.objective, 2),
                   std::to_string(scg.cost) +
                       (scg.proved_optimal
                            ? "*"
                            : "(" + std::to_string(scg.lower_bound) + ")"),
                   std::to_string(greedy.cost),
                   std::to_string(exact.cost) + (exact.optimal ? "" : "H"),
                   std::to_string(exact.nodes),
                   TextTable::num(exact.seconds)});
    }
    t.print(std::cout);

    // How many irredundant covers exist at all? (implicit enumeration +
    // exact counting — these counts overflow nothing, the ZDD stays small.)
    for (const int dim : {2, 3}) {
        const auto m = ucp::gen::steiner_cover(dim);
        try {
            ucp::zdd::ZddManager mgr(m.num_cols());
            const auto covers = ucp::cover::minimal_covers(mgr, m);
            std::cout << "\nSTS(" << (dim == 2 ? 9 : 27) << "): "
                      << mgr.count_exact(covers)
                      << " irredundant covers in total ("
                      << covers.node_count() << " ZDD nodes)";
        } catch (const std::exception& e) {
            std::cout << "\nSTS(" << (dim == 2 ? 9 : 27)
                      << "): enumeration guard hit (" << e.what() << ")";
        }
    }
    std::cout << "\n\nKnown optima: STS(9) = 5, STS(27) = 18. The Lagrangian "
                 "bound is capped by the LP value (3 / 9), so the gap is "
                 "structural, not a solver weakness — exactly the situation "
                 "of the paper's ex1010/test2/test3 rows.\n";
    return 0;
}
