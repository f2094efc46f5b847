#include "primes/explicit_primes.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace ucp::primes {

using pla::Cover;
using pla::Cube;
using pla::CubeSpace;

pla::Cover primes_by_consensus(const pla::Cover& care, std::size_t max_primes,
                               ConsensusStats* stats,
                               const ConsensusBudget& budget) {
    const CubeSpace& s = care.space();
    ConsensusStats local;
    ConsensusStats& st = stats != nullptr ? *stats : local;
    st = {};

    // Working set with lazy deletion.
    std::vector<Cube> cubes;
    std::vector<bool> dead;
    cubes.reserve(care.size() * 2);

    auto absorbed_by_existing = [&](const Cube& c) {
        for (std::size_t i = 0; i < cubes.size(); ++i) {
            if (dead[i]) continue;
            ++st.containment_checks;
            if (cubes[i].contains(s, c)) return true;
        }
        return false;
    };

    auto check_budget = [&](bool absorbed_too) {
        if ((absorbed_too && st.cubes_absorbed > budget.max_absorbed) ||
            st.consensus_attempts + st.containment_checks > budget.max_checks)
            throw ResourceError(Status::kNodeBudget,
                                "primes_by_consensus: work budget exceeded");
    };

    auto insert = [&](Cube c) -> bool {
        check_budget(true);
        if (!c.valid(s)) return false;
        if (absorbed_by_existing(c)) return false;
        // Kill strictly smaller cubes.
        for (std::size_t i = 0; i < cubes.size(); ++i) {
            if (dead[i]) continue;
            ++st.containment_checks;
            if (c.contains(s, cubes[i])) {
                dead[i] = true;
                ++st.cubes_absorbed;
            }
        }
        cubes.push_back(std::move(c));
        dead.push_back(false);
        ++st.cubes_added;
        if (st.cubes_added > max_primes)
            throw ResourceError(Status::kNodeBudget,
                                "primes_by_consensus: prime limit exceeded (" +
                                    std::to_string(max_primes) + ")");
        return true;
    };

    for (const auto& c : care) insert(c);

    // Iterate to closure. `frontier_start` avoids recomputing pairs of old
    // cubes: a pass only pairs (old ∪ new) × new.
    std::size_t frontier_start = 0;
    while (frontier_start < cubes.size()) {
        const std::size_t frontier_end = cubes.size();
        ++st.passes;
        for (std::size_t j = frontier_start; j < frontier_end; ++j) {
            if (dead[j]) continue;
            check_budget(false);  // a pass that inserts nothing still stops
            for (std::size_t i = 0; i < j; ++i) {
                if (dead[i] || dead[j]) continue;
                ++st.consensus_attempts;
                const auto cons = cubes[i].consensus(s, cubes[j]);
                if (cons.has_value()) insert(*cons);
                if (dead[i] || dead[j]) continue;
                // Distance-0 output-part consensus: merges cubes with
                // overlapping-but-incomparable output sets (needed for
                // completeness with ≥ 3 outputs).
                const auto ocons = cubes[i].output_consensus(s, cubes[j]);
                if (ocons.has_value()) insert(*ocons);
            }
        }
        frontier_start = frontier_end;
    }

    Cover out(s);
    for (std::size_t i = 0; i < cubes.size(); ++i)
        if (!dead[i]) out.add(std::move(cubes[i]));
    // The surviving set is an antichain under containment: the primes.
    return out;
}

pla::Cover primes_by_tabular(const pla::Cover& care, std::size_t max_minterms) {
    const CubeSpace& s = care.space();
    UCP_REQUIRE(s.num_outputs == 0, "tabular method requires input-only cover");
    UCP_REQUIRE(s.num_inputs <= 20, "tabular method limited to 20 inputs");
    const std::uint32_t n = s.num_inputs;

    // QM cube: (value, dash) — `dash` bits are free, `value` gives the bound
    // bits (zero on dash positions). Packed into one 64-bit key.
    struct QmCube {
        std::uint32_t value;
        std::uint32_t dash;
    };
    const auto key = [](std::uint32_t value, std::uint32_t dash) {
        return (static_cast<std::uint64_t>(dash) << 32) | value;
    };

    // Level 0: the minterms.
    std::vector<QmCube> level;
    const std::uint64_t limit = 1ULL << n;
    UCP_REQUIRE(limit <= max_minterms, "minterm expansion exceeds the limit");
    for (std::uint64_t a = 0; a < limit; ++a)
        if (care.eval({a})) level.push_back({static_cast<std::uint32_t>(a), 0});

    pla::Cover primes(s);
    std::unordered_set<std::uint64_t> emitted;

    const auto emit = [&](const QmCube& c) {
        if (!emitted.insert(key(c.value, c.dash)).second) return;
        Cube cube = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < n; ++i) {
            if ((c.dash >> i) & 1) continue;
            cube.set_in(s, i,
                        ((c.value >> i) & 1) != 0 ? pla::Lit::kOne
                                                  : pla::Lit::kZero);
        }
        primes.add(std::move(cube));
    };

    while (!level.empty()) {
        // Group cube indices by popcount of the value (dash bits are zero).
        std::unordered_map<std::uint64_t, std::size_t> index_of;
        index_of.reserve(level.size() * 2);
        for (std::size_t i = 0; i < level.size(); ++i)
            index_of.emplace(key(level[i].value, level[i].dash), i);

        std::vector<bool> merged(level.size(), false);
        std::unordered_set<std::uint64_t> next_keys;
        std::vector<QmCube> next;
        for (std::size_t i = 0; i < level.size(); ++i) {
            const QmCube& c = level[i];
            for (std::uint32_t b = 0; b < n; ++b) {
                if ((c.dash >> b) & 1) continue;
                if ((c.value >> b) & 1) continue;  // pair up from the 0 side
                const auto partner = index_of.find(
                    key(c.value | (1u << b), c.dash));
                if (partner == index_of.end()) continue;
                merged[i] = true;
                merged[partner->second] = true;
                const QmCube m{c.value, c.dash | (1u << b)};
                if (next_keys.insert(key(m.value, m.dash)).second)
                    next.push_back(m);
            }
        }
        for (std::size_t i = 0; i < level.size(); ++i)
            if (!merged[i]) emit(level[i]);
        level = std::move(next);
    }
    return primes;
}

}  // namespace ucp::primes
