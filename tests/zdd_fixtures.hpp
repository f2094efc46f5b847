// Fixtures for the ZDD suites, built with the pipeline's own minterm encoder
// (zdd::minterms_of_cube): a set S of the manager's variables is the minterm
// that is 1 on S and 0 elsewhere, and a cube with – on F stands for all
// 2^|F| minterms it covers.
#pragma once

#include <vector>

#include "zdd/zdd_cubes.hpp"

namespace ucp::zdd::fixtures {

/// The minterms of the cube that is 1 on `ones`, – on `free` and 0 on every
/// other variable of `mgr`: the family { ones ∪ T : T ⊆ free }.
inline Zdd cube(ZddManager& mgr, const std::vector<Var>& ones,
                const std::vector<Var>& free = {}) {
    std::vector<LitSpec> spec(mgr.num_vars(), LitSpec::kZero);
    for (const Var v : ones) spec[v] = LitSpec::kOne;
    for (const Var v : free) spec[v] = LitSpec::kDontCare;
    return minterms_of_cube(mgr, spec);
}

}  // namespace ucp::zdd::fixtures
