#include "solver/two_level.hpp"

#include "pla/urp.hpp"
#include "solver/greedy.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ucp::solver {

using cov::Cost;
using cov::Index;

bool verify_equivalence(const pla::Pla& pla, const pla::Cover& cover) {
    const pla::CubeSpace& s = pla.space();
    if (cover.space() != s) return false;

    // Direction 1: cover asserts no OFF point — every cube of the cover is an
    // implicant of ON ∪ DC.
    pla::Cover care = pla.on;
    care.append(pla.dc);
    for (const auto& c : cover)
        if (!pla::cover_contains_cube(care, c)) return false;

    // Direction 2: every ON point is covered — ON ≤ cover ∪ DC.
    pla::Cover relaxed = cover;
    relaxed.append(pla.dc);
    for (const auto& c : pla.on)
        if (!pla::cover_contains_cube(relaxed, c)) return false;
    return true;
}

TwoLevelResult minimize_two_level(const pla::Pla& pla,
                                  const TwoLevelOptions& opt) {
    TRACE_SPAN("two_level");
    Timer total;
    TwoLevelResult res;

    // One governor for the whole pipeline: DD managers charge node growth,
    // the solvers charge iterations, everything shares the deadline and the
    // cancel token.
    Budget gov(opt.budget, opt.cancel);
    cover::TableBuildOptions topt = opt.table;
    if (topt.dd.governor == nullptr) topt.dd.governor = &gov;

    cover::CoveringTable table;
    try {
        TRACE_SPAN("two_level.build_table");
        table = cover::build_covering_table(pla, topt);
    } catch (const ResourceError& e) {
        // A deadline/cancel (or forced-implicit node budget) trip before any
        // cover exists: report the empty anytime result instead of failing.
        res.cover = pla::Cover(pla.space());
        res.status = e.status();
        res.total_seconds = total.seconds();
        return res;
    }
    res.num_primes = table.primes.size();
    res.num_rows = table.matrix.num_rows();
    res.prime_method = table.prime_method;
    res.row_method = table.row_method;
    res.onset_minterms = table.onset_minterms;
    res.cyclic_core_seconds = table.build_seconds;

    // The explicit covering matrix is the pipeline's last long-lived
    // structure; charge it before dispatching a solver. A denial trips the
    // governor (stage 4 of the degradation ladder) and the dispatch is
    // replaced by the cheap greedy cover — a feasible anytime incumbent
    // reported as kResourceExhausted, never an abort.
    const std::size_t table_bytes = table.matrix.memory_bytes();
    const bool table_charged = gov.charge_memory(table_bytes);

    std::vector<Index> solution;
    if (!table_charged) {
        const GreedyResult r = chvatal_greedy(table.matrix);
        solution = r.solution;
        res.weighted_lower_bound = 0;
        res.status = Status::kResourceExhausted;
    } else switch (opt.cover_solver) {
        case CoverSolver::kScg: {
            ScgOptions sopt = opt.scg;
            if (sopt.governor == nullptr) sopt.governor = &gov;
            const ScgResult r = solve_scg(table.matrix, sopt);
            solution = r.solution;
            res.weighted_lower_bound = r.lower_bound;
            res.proved_optimal = r.proved_optimal;
            res.run_of_best = r.run_of_best;
            res.status = r.status;
            break;
        }
        case CoverSolver::kGreedy: {
            const GreedyResult r = chvatal_greedy(table.matrix);
            solution = r.solution;
            res.weighted_lower_bound = 0;
            break;
        }
        case CoverSolver::kExact: {
            BnbOptions bopt = opt.bnb;
            if (bopt.governor == nullptr) bopt.governor = &gov;
            const BnbResult r = solve_exact(table.matrix, bopt);
            solution = r.solution;
            res.weighted_lower_bound = r.lower_bound;
            res.proved_optimal = r.optimal;
            res.status = r.status;
            break;
        }
    }
    if (table_charged) gov.release_memory(table_bytes);
    res.weighted_cost = table.matrix.solution_cost(solution);
    // Under the lexicographic (products, literals) model the product-count
    // bound is ⌊weighted bound / W⌋ (W exceeds every literal total).
    res.lower_bound = res.weighted_lower_bound / table.weight_scale;

    res.cover = cover::solution_to_cover(table, solution);
    res.cost = static_cast<Cost>(res.cover.size());
    res.literals = res.cover.literal_count();
    res.verified = verify_equivalence(pla, res.cover);
    res.total_seconds = total.seconds();
    return res;
}

}  // namespace ucp::solver
