// Supplementary experiment (§3.2 narrative): the subgradient trajectory.
// The paper describes z_λ as "not monotonous: it oscillates from step to
// step. Only its best known value LB progressively rises" while the dual
// side squeezes the target from above. This bench prints the trajectory on
// a difficult-suite cyclic core and on a circulant so the behaviour is
// visible, plus a summary of how fast LB closes the gap to the LP optimum.
#include <iostream>

#include "bench_common.hpp"
#include "cover/table_builder.hpp"
#include "gen/scp_gen.hpp"
#include "gen/suites.hpp"
#include "lagrangian/subgradient.hpp"
#include "lp/simplex.hpp"
#include "matrix/reductions.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using ucp::TextTable;
using ucp::cov::CoverMatrix;

void trajectory(const std::string& name, const CoverMatrix& m,
                int max_print = 30) {
    ucp::lagr::SubgradientOptions opt;
    opt.record_trace = true;
    opt.max_iterations = 400;
    const auto sub = ucp::lagr::subgradient_ascent(m, opt);
    const auto lp = ucp::lp::solve_covering_lp(m);

    std::cout << "-- " << name << " (" << m.num_rows() << "x" << m.num_cols()
              << ", LP optimum "
              << (lp.status == ucp::lp::LpStatus::kOptimal
                      ? TextTable::num(lp.objective, 3)
                      : std::string("n/a"))
              << ") --\n";
    TextTable t({"iter", "z_lambda", "LB (monotone)", "w_LD", "incumbent",
                 "step t_k"});
    const std::size_t stride =
        std::max<std::size_t>(1, sub.trace.size() / max_print);
    for (std::size_t i = 0; i < sub.trace.size(); i += stride) {
        const auto& p = sub.trace[i];
        t.add_row({std::to_string(p.iteration), TextTable::num(p.z_lambda, 3),
                   TextTable::num(p.lb_best, 3), TextTable::num(p.w_ld, 3),
                   std::to_string(p.incumbent), TextTable::num(p.step, 4)});
    }
    t.print(std::cout);
    std::cout << "final: LB " << sub.lb << " (" << TextTable::num(sub.lb_fractional, 3)
              << "), incumbent " << sub.best_cost
              << (sub.proved_optimal ? " — proved optimal" : "") << ", "
              << sub.iterations << " iterations\n\n";
}

}  // namespace

int main(int argc, char** argv) {
    ucp::bench::JsonReporter json(argc, argv, "convergence");
    std::cout << "=== Subgradient convergence trajectories (section 3.2) ===\n\n";

    trajectory("circulant C(40, 7)", ucp::gen::cyclic_matrix(40, 7));

    {
        const auto suite = ucp::gen::difficult_cyclic_suite();
        const auto tab = ucp::cover::build_covering_table(suite[2].pla);  // exam
        const auto red = ucp::cov::reduce(tab.matrix);
        if (!red.solved())
            trajectory("cyclic core of 'exam'", red.core);
    }

    // Gap-closure summary over random instances: iterations until the bound
    // is within 2% of the LP optimum.
    // A run "closes" when the monotone LB reaches 98% of the LP optimum or
    // the integrality proof ⌈LB⌉ = incumbent fires first (early exit).
    std::cout << "-- gap closure: 98% of LP reached, or optimality proved --\n";
    TextTable t({"rows x cols", "density", "median iters", "closed", "proved",
                 "runs"});
    ucp::Rng seeds(42);
    for (const auto& [rows, cols, density] :
         std::vector<std::tuple<ucp::cov::Index, ucp::cov::Index, double>>{
             {20, 30, 0.15}, {40, 60, 0.08}, {80, 120, 0.05}}) {
        json.begin_record();
        std::vector<int> iters_needed;
        int closed = 0, proved = 0;
        double sub_seconds = 0.0;
        const int runs = 15;
        for (int r = 0; r < runs; ++r) {
            ucp::gen::RandomScpOptions g;
            g.rows = rows;
            g.cols = cols;
            g.density = density;
            g.seed = seeds();
            const auto m = ucp::gen::random_scp(g);
            const auto lp = ucp::lp::solve_covering_lp(m);
            if (lp.status != ucp::lp::LpStatus::kOptimal) continue;
            ucp::lagr::SubgradientOptions opt;
            opt.record_trace = true;
            opt.max_iterations = 400;
            ucp::Timer sub_timer;
            const auto sub = ucp::lagr::subgradient_ascent(m, opt);
            sub_seconds += sub_timer.seconds();
            int hit = -1;
            for (const auto& p : sub.trace)
                if (p.lb_best >= 0.98 * lp.objective) {
                    hit = p.iteration;
                    break;
                }
            if (sub.proved_optimal && hit < 0) hit = sub.iterations;
            if (hit >= 0) {
                ++closed;
                iters_needed.push_back(hit);
            }
            if (sub.proved_optimal) ++proved;
        }
        std::sort(iters_needed.begin(), iters_needed.end());
        const int median =
            iters_needed.empty()
                ? -1
                : iters_needed[iters_needed.size() / 2];
        t.add_row({std::to_string(rows) + "x" + std::to_string(cols),
                   TextTable::num(density, 2),
                   median < 0 ? "-" : std::to_string(median),
                   std::to_string(closed), std::to_string(proved),
                   std::to_string(runs)});
        // wall_ms = subgradient time only (the LP reference solves are not
        // part of the system under test).
        json.record(std::to_string(rows) + "x" + std::to_string(cols),
                    static_cast<double>(median), sub_seconds * 1e3,
                    {{"closed", static_cast<double>(closed)},
                     {"proved", static_cast<double>(proved)},
                     {"runs", static_cast<double>(runs)}});
    }
    t.print(std::cout);

    // Dense subgradient suites: cores large enough that the per-iteration
    // passes (c̃ update, dual-side ẽ, step direction) are memory-bound on
    // the matrix layout rather than L1-resident. No LP reference here — the
    // solution fields are the subgradient's own deterministic outputs.
    std::cout << "\n-- dense subgradient suites (wall = subgradient only) --\n";
    TextTable td({"instance", "sum LB", "sum incumbent", "proved", "iters",
                  "sub ms"});
    ucp::Rng dense_seeds(7);
    for (const auto& [name, rows, cols, density, runs] :
         std::vector<std::tuple<std::string, ucp::cov::Index, ucp::cov::Index,
                                double, int>>{
             {"dense-400x800-d10", 400, 800, 0.10, 5},
             {"dense-500x1000-d6", 500, 1000, 0.06, 3},
             {"dense-800x1600-d4", 800, 1600, 0.04, 2}}) {
        // Instances are generated up front so a --min-of repeat loop re-times
        // exactly the same subgradient work (and the RNG stream feeding later
        // configs is unchanged).
        std::vector<ucp::cov::CoverMatrix> mats;
        mats.reserve(static_cast<std::size_t>(runs));
        for (int r = 0; r < runs; ++r) {
            ucp::gen::RandomScpOptions g;
            g.rows = rows;
            g.cols = cols;
            g.density = density;
            g.seed = dense_seeds();
            mats.push_back(ucp::gen::random_scp(g));
        }
        long lb_sum = 0, cost_sum = 0, iters = 0;
        int proved = 0;
        json.begin_record();
        const ucp::bench::RepeatTiming rt =
            ucp::bench::time_min_of(json.min_of(), [&] {
                lb_sum = cost_sum = iters = 0;
                proved = 0;
                for (const auto& m : mats) {
                    ucp::lagr::SubgradientOptions opt;
                    opt.max_iterations = 400;
                    const auto sub = ucp::lagr::subgradient_ascent(m, opt);
                    lb_sum += static_cast<long>(sub.lb);
                    cost_sum += static_cast<long>(sub.best_cost);
                    iters += sub.iterations;
                    if (sub.proved_optimal) ++proved;
                }
            });
        const double sub_ms = rt.min_ms;
        td.add_row({name, std::to_string(lb_sum), std::to_string(cost_sum),
                    std::to_string(proved), std::to_string(iters),
                    TextTable::num(sub_ms, 1)});
        std::vector<std::pair<std::string, double>> extra{
            {"lb_sum", static_cast<double>(lb_sum)},
            {"proved", static_cast<double>(proved)},
            {"iterations", static_cast<double>(iters)},
            {"runs", static_cast<double>(runs)}};
        ucp::bench::append_repeat_fields(extra, rt);
        json.record(name, static_cast<double>(cost_sum), sub_ms, extra);
    }
    td.print(std::cout);
    return 0;
}
