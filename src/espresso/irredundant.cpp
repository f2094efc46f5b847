#include <algorithm>
#include <numeric>

#include "cover/table_builder.hpp"
#include "espresso/espresso.hpp"
#include "solver/bnb.hpp"

namespace ucp::esp {

using pla::Cover;
using pla::CubeSpace;

Cover irredundant(const Cover& f, const Cover& dc) {
    const CubeSpace& s = f.space();
    UCP_REQUIRE(dc.empty() || dc.space() == s, "dc cover space mismatch");

    // Greedy removal: try to delete the smallest (most-literal) cubes first —
    // they are the most likely to be covered by the rest.
    std::vector<std::size_t> order(f.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return f[a].input_literal_count(s) > f[b].input_literal_count(s);
    });

    std::vector<bool> kept(f.size(), true);
    for (const std::size_t idx : order) {
        // Build (F − cube) ∪ D and test containment.
        Cover rest(s);
        rest.reserve(f.size() + dc.size());
        for (std::size_t i = 0; i < f.size(); ++i)
            if (kept[i] && i != idx) rest.add(f[i]);
        rest.append(dc);
        if (pla::cover_contains_cube(rest, f[idx])) kept[idx] = false;
    }

    Cover out(s);
    for (std::size_t i = 0; i < f.size(); ++i)
        if (kept[i]) out.add(f[i]);
    return out;
}

Cover irredundant_exact(const Cover& f, const pla::Pla& pla) {
    if (f.empty()) return f;
    const auto onset = cover::onset_covering_matrix(pla, f);
    if (onset.matrix.num_rows() == 0) return Cover(f.space());  // empty on-set

    BudgetOptions limit;
    limit.deadline_seconds = 5.0;
    Budget governor(limit);
    solver::BnbOptions opt;
    opt.governor = &governor;
    const auto r = solver::solve_exact(onset.matrix, opt);
    if (!r.optimal) return f;  // truncated or tripped: keep the input (valid)

    Cover out(f.space());
    for (const auto j : r.solution) out.add(f[j]);
    return out;
}

}  // namespace ucp::esp
