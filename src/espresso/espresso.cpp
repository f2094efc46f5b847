#include "espresso/espresso.hpp"

#include "util/timer.hpp"

namespace ucp::esp {

using pla::Cover;

namespace {

/// Safety bound on each improvement loop.
constexpr int kMaxLoops = 25;
/// Strong mode: covers of at most this many cubes get the exact
/// minimum-subset IRREDUNDANT instead of the greedy one.
constexpr std::size_t kExactIrredundantMaxCubes = 150;

/// (cube count, literal count) — the paper's primary/secondary cost.
std::pair<std::size_t, std::size_t> cost_of(const Cover& f) {
    return {f.size(), f.literal_count()};
}

/// LAST_GASP (strong mode): reduce every cube *independently* to its maximal
/// reduction, re-expand with rotated literal orders, and keep the result if
/// the irredundant union improves the cover. When the candidate pool is
/// small enough the subset selection is done exactly (covering problem).
Cover last_gasp(const Cover& f, const pla::Pla& pla,
                const std::vector<Cover>& offsets) {
    const Cover& dc = pla.dc;
    Cover best = f;
    auto best_cost = cost_of(best);
    for (unsigned seed = 1; seed <= 3; ++seed) {
        const Cover reduced = reduce_cover(f, dc);
        Cover candidates = expand(reduced, offsets, seed);
        candidates.append(f);
        candidates.remove_single_cube_contained();
        Cover trial = candidates.size() <= kExactIrredundantMaxCubes
                          ? irredundant_exact(candidates, pla)
                          : irredundant(candidates, dc);
        const auto c = cost_of(trial);
        if (c < best_cost) {
            best = std::move(trial);
            best_cost = c;
        }
    }
    return best;
}

}  // namespace

EspressoResult espresso(const pla::Pla& pla, const EspressoOptions& opt) {
    Timer timer;
    EspressoResult res;
    res.initial_cubes = pla.on.size();

    const std::vector<Cover> offsets = compute_offsets(pla);

    Cover f = pla.on;
    f.remove_single_cube_contained();
    f = expand(f, offsets);
    f = irredundant(f, pla.dc);
    auto best_cost = cost_of(f);

    for (int loop = 0; loop < kMaxLoops; ++loop) {
        ++res.loops;
        Cover trial = reduce_cover(f, pla.dc);
        trial = expand(trial, offsets);
        trial = irredundant(trial, pla.dc);
        const auto c = cost_of(trial);
        if (c < best_cost) {
            f = std::move(trial);
            best_cost = c;
        } else {
            break;
        }
    }

    if (opt.strong) {
        // Exact minimum-subset IRREDUNDANT on the current cover: picks the
        // best selection among the primes EXPAND produced so far.
        if (f.size() <= kExactIrredundantMaxCubes) {
            Cover trial = irredundant_exact(f, pla);
            const auto c = cost_of(trial);
            if (c < best_cost) {
                f = std::move(trial);
                best_cost = c;
            }
        }
        for (int round = 0; round < kMaxLoops; ++round) {
            Cover trial = last_gasp(f, pla, offsets);
            const auto c = cost_of(trial);
            if (c < best_cost) {
                f = std::move(trial);
                best_cost = c;
                // A gain re-opens the main loop.
                for (int loop = 0; loop < kMaxLoops; ++loop) {
                    ++res.loops;
                    Cover t2 = reduce_cover(f, pla.dc);
                    t2 = expand(t2, offsets);
                    t2 = irredundant(t2, pla.dc);
                    const auto c2 = cost_of(t2);
                    if (c2 < best_cost) {
                        f = std::move(t2);
                        best_cost = c2;
                    } else {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    res.cover = std::move(f);
    res.final_cubes = res.cover.size();
    res.seconds = timer.seconds();
    return res;
}

}  // namespace ucp::esp
