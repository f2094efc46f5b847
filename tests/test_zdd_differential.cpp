// Randomized differential tests of the ZDD engine against a std::set-based
// oracle. Every operation the pipeline runs (union_, diff, the fused split,
// count, node_count, for_each_set) and intersect, split's structural
// reference, is replayed on an explicit set-of-sets model, and the resulting
// families are compared member-for-member and by node count. A deliberately
// tiny gc_threshold forces mark-and-sweep collections mid-stream, so the
// suite also exercises node reuse after sweeps and the cache-flush-on-gc
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "zdd/zdd.hpp"
#include "zdd_fixtures.hpp"

namespace {

using ucp::Rng;
using ucp::zdd::DdOptions;
using ucp::zdd::Var;
using ucp::zdd::Zdd;
using ucp::zdd::ZddManager;
using ucp::zdd::fixtures::cube;

using Set = std::set<Var>;
using Family = std::set<Set>;

Zdd to_zdd(ZddManager& mgr, const Family& fam) {
    Zdd out = mgr.empty();
    for (const Set& s : fam)
        out = mgr.union_(out, cube(mgr, std::vector<Var>(s.begin(), s.end())));
    return out;
}

Family to_family(const ZddManager& mgr, const Zdd& z) {
    Family out;
    mgr.for_each_set(z, [&](const std::vector<Var>& members) {
        out.insert(Set(members.begin(), members.end()));
    });
    return out;
}

Family random_oracle_family(Rng& rng, Var vars, std::size_t sets) {
    Family out;
    for (std::size_t i = 0; i < sets; ++i) {
        Set s;
        for (Var v = 0; v < vars; ++v)
            if (rng.chance(0.35)) s.insert(v);
        out.insert(std::move(s));
    }
    return out;
}

// ---- oracle implementations of every operator ------------------------------

Family o_union(const Family& a, const Family& b) {
    Family out = a;
    out.insert(b.begin(), b.end());
    return out;
}

Family o_intersect(const Family& a, const Family& b) {
    Family out;
    for (const Set& s : a)
        if (b.count(s)) out.insert(s);
    return out;
}

Family o_diff(const Family& a, const Family& b) {
    Family out;
    for (const Set& s : a)
        if (!b.count(s)) out.insert(s);
    return out;
}

// The smallest variable in any set of a non-terminal family.
Var o_top(const Family& a) {
    Var top = ~Var{0};
    for (const Set& s : a)
        if (!s.empty()) top = std::min(top, *s.begin());
    return top;
}

// Node count of the canonical diagram of `a`, from the family alone: each
// node is a distinct sub-family reached at a branch, split at its smallest
// variable b into the sets without b (lo) and the sets with b, b removed
// (hi). With chain nodes a node also swallows the levels below it while
// every set holds them: while lo is empty and hi's smallest variable is
// b + 1, the interval grows to b + 1 (DESIGN.md §12). The suites use at
// most 24 variables, far below the 255-level segment limit.
std::size_t o_node_count(const Family& a, bool chains) {
    std::set<Family> nodes;
    std::vector<Family> todo{a};
    while (!todo.empty()) {
        Family cur = std::move(todo.back());
        todo.pop_back();
        if (cur.empty() || cur == Family{Set{}}) continue;  // terminals
        if (!nodes.insert(cur).second) continue;
        Family lo, hi;
        for (Var b = o_top(cur);; ++b) {
            lo.clear();
            hi.clear();
            for (const Set& s : cur) {
                if (!s.count(b)) {
                    lo.insert(s);
                    continue;
                }
                Set t = s;
                t.erase(b);
                hi.insert(std::move(t));
            }
            if (!chains || !lo.empty() || hi == Family{Set{}} || o_top(hi) != b + 1)
                break;
            cur = hi;
        }
        todo.push_back(std::move(lo));
        todo.push_back(std::move(hi));
    }
    return nodes.size();
}

// Tiny thresholds: force GC sweeps and adaptive cache resizes constantly.
DdOptions stress_options() {
    DdOptions dd;
    dd.gc_threshold = 64;
    dd.cache_entries = 16;
    dd.max_cache_entries = 1 << 10;
    return dd;
}

constexpr Var kVars = 10;

// One step's operation, applied to the ZDD pool and the oracle alike: union,
// intersection, difference, or the fused split, whose intersection half is
// checked here and whose difference half becomes the step's result. Ops
// past 3 are unions too, so the pool grows about as fast as it shrinks.
constexpr unsigned kOps = 6;
constexpr std::size_t kRefillBelow = 4;

void apply_op(unsigned op, ZddManager& mgr, const Zdd& a, const Zdd& b,
              const Family& fa, const Family& fb, Zdd& got, Family& expect) {
    switch (op) {
        case 0:
            expect = o_union(fa, fb);
            got = mgr.union_(a, b);
            break;
        case 1:
            expect = o_intersect(fa, fb);
            got = mgr.intersect(a, b);
            break;
        case 2:
            expect = o_diff(fa, fb);
            got = mgr.diff(a, b);
            break;
        case 3: {
            const auto [in, out] = mgr.split(a, b);
            ASSERT_EQ(to_family(mgr, in), o_intersect(fa, fb));
            expect = o_diff(fa, fb);
            got = out;
            break;
        }
        default:
            expect = o_union(fa, fb);
            got = mgr.union_(a, b);
            break;
    }
}

// One randomized trajectory: a pool of oracle families, random binary ops
// applied to random pool members, ZDD and oracle evolved in lockstep and
// compared after every step.
void run_trajectory(std::uint64_t seed, std::size_t steps,
                    std::uint64_t& gc_runs) {
    Rng rng(seed);
    ZddManager mgr(kVars, stress_options());

    std::vector<Family> oracle;
    std::vector<Zdd> dd;
    for (int i = 0; i < 4; ++i) {
        oracle.push_back(random_oracle_family(rng, kVars, 1 + rng.below(12)));
        dd.push_back(to_zdd(mgr, oracle.back()));
    }

    for (std::size_t step = 0; step < steps; ++step) {
        const std::size_t i = rng.below(oracle.size());
        const std::size_t j = rng.below(oracle.size());
        Family expect;
        Zdd got = mgr.empty();
        const auto op = static_cast<unsigned>(rng.below(kOps));
        apply_op(op, mgr, dd[i], dd[j], oracle[i], oracle[j], got, expect);
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "step " << step << " seed " << seed;
        ASSERT_EQ(to_family(mgr, got), expect)
            << "step " << step << " seed " << seed;
        // Count queries ride along on every step.
        ASSERT_DOUBLE_EQ(mgr.count(got), static_cast<double>(expect.size()));
        ASSERT_EQ(mgr.node_count(got),
                  o_node_count(expect, mgr.chain_nodes_enabled()))
            << "step " << step << " seed " << seed;

        // Replace a random pool slot so families keep evolving. ∩ and − only
        // shrink families, so a drained result is swapped for a fresh one.
        if (expect.size() < kRefillBelow) {
            expect = random_oracle_family(rng, kVars, 1 + rng.below(12));
            got = to_zdd(mgr, expect);
        }
        const std::size_t k = rng.below(oracle.size());
        oracle[k] = std::move(expect);
        dd[k] = got;
    }

    gc_runs += mgr.gc_stats().runs;
}

TEST(ZddDifferential, RandomTrajectories) {
    // Individual short seeds may stay under the GC threshold; the batch as a
    // whole must have forced collections.
    std::uint64_t gc_runs = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        run_trajectory(seed, 120, gc_runs);
    EXPECT_GT(gc_runs, 0u);
}

TEST(ZddDifferential, LongTrajectoryWithResizes) {
    std::uint64_t gc_runs = 0;
    run_trajectory(99, 400, gc_runs);
    EXPECT_GT(gc_runs, 0u);
}

// split must return the *same canonical nodes* as intersect and diff —
// structural equality by id(), not just member equality.
TEST(ZddDifferential, SplitHalvesAreIntersectAndDiff) {
    Rng rng(7);
    ZddManager mgr(12, stress_options());
    for (int round = 0; round < 50; ++round) {
        const Zdd a = to_zdd(mgr, random_oracle_family(rng, 12, 1 + rng.below(20)));
        const Zdd b = to_zdd(mgr, random_oracle_family(rng, 12, 1 + rng.below(20)));

        const auto [in, out] = mgr.split(a, b);
        EXPECT_EQ(in.id(), mgr.intersect(a, b).id());
        EXPECT_EQ(out.id(), mgr.diff(a, b).id());
    }
}

// ---- chain-node encoding: chain-on vs chain-off differential ---------------
//
// Interval-heavy families make the chain encoding actually fire (runs of
// consecutive levels collapse into one ⟨t:b⟩ node). Two managers — one with
// chain nodes, one without — evolve in lockstep against the std::set oracle;
// every operator result must enumerate to the same family in both encodings,
// with each encoding's own node count, and split's halves must be the very
// nodes intersect and diff return inside each manager independently. The
// stress options keep the GC threshold tiny so the sweeps repeatedly walk
// (and the free list recycles) chain nodes.

constexpr Var kChainVars = 24;

Family random_interval_family(Rng& rng, std::size_t sets) {
    Family out;
    for (std::size_t i = 0; i < sets; ++i) {
        Set s;
        const Var a = static_cast<Var>(rng.below(kChainVars));
        const Var len = static_cast<Var>(1 + rng.below(kChainVars - a));
        for (Var v = a; v < a + len; ++v) s.insert(v);
        // Occasional punctures keep the chains from being the whole story.
        if (rng.chance(0.3)) s.erase(static_cast<Var>(rng.below(kChainVars)));
        out.insert(std::move(s));
    }
    return out;
}

TEST(ZddDifferential, ChainOnVsChainOffLockstep) {
    Rng rng(21);
    DdOptions chained = stress_options();
    chained.chain_nodes = true;
    DdOptions plain = stress_options();
    plain.chain_nodes = false;
    ZddManager cm(kChainVars, chained);
    ZddManager pm(kChainVars, plain);
    ASSERT_TRUE(cm.chain_nodes_enabled());
    ASSERT_FALSE(pm.chain_nodes_enabled());

    std::vector<Family> oracle;
    std::vector<Zdd> cdd, pdd;
    for (int i = 0; i < 4; ++i) {
        oracle.push_back(random_interval_family(rng, 2 + rng.below(10)));
        cdd.push_back(to_zdd(cm, oracle.back()));
        pdd.push_back(to_zdd(pm, oracle.back()));
    }

    for (std::size_t step = 0; step < 250; ++step) {
        const std::size_t i = rng.below(oracle.size());
        const std::size_t j = rng.below(oracle.size());
        const auto op = static_cast<unsigned>(rng.below(kOps));
        Family expect;
        Zdd cgot = cm.empty(), pgot = pm.empty();
        apply_op(op, cm, cdd[i], cdd[j], oracle[i], oracle[j], cgot, expect);
        apply_op(op, pm, pdd[i], pdd[j], oracle[i], oracle[j], pgot, expect);
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;
        ASSERT_EQ(to_family(cm, cgot), expect) << "chain-on step " << step;
        ASSERT_EQ(to_family(pm, pgot), expect) << "chain-off step " << step;
        ASSERT_DOUBLE_EQ(cm.count(cgot), pm.count(pgot));
        ASSERT_EQ(cm.node_count(cgot), o_node_count(expect, true))
            << "chain-on step " << step;
        ASSERT_EQ(pm.node_count(pgot), o_node_count(expect, false))
            << "chain-off step " << step;

        if (expect.size() < kRefillBelow) {
            expect = random_interval_family(rng, 2 + rng.below(10));
            cgot = to_zdd(cm, expect);
            pgot = to_zdd(pm, expect);
        }
        const std::size_t k = rng.below(oracle.size());
        oracle[k] = std::move(expect);
        cdd[k] = cgot;
        pdd[k] = pgot;

        // Id-level canonicality inside each manager: split's halves must be
        // the very nodes intersect and diff build — in the chain encoding
        // this only holds if every chain-split and chain-merge case
        // normalises identically on both routes.
        if (step % 25 == 0) {
            ASSERT_EQ(cm.split(cdd[i], cdd[j]).first.id(),
                      cm.intersect(cdd[i], cdd[j]).id());
            ASSERT_EQ(cm.split(cdd[i], cdd[j]).second.id(),
                      cm.diff(cdd[i], cdd[j]).id());
            ASSERT_EQ(pm.split(pdd[i], pdd[j]).first.id(),
                      pm.intersect(pdd[i], pdd[j]).id());
            ASSERT_EQ(pm.split(pdd[i], pdd[j]).second.id(),
                      pm.diff(pdd[i], pdd[j]).id());
        }
    }

    // The trajectory must actually have exercised what it claims to: chain
    // nodes in the chained manager (none in the plain one) and GC sweeps in
    // both (the sweeps are what walk the free list through chain records).
    EXPECT_GT(cm.chain_stats().nodes_made, 0u);
    EXPECT_EQ(pm.chain_stats().nodes_made, 0u);
    EXPECT_GT(cm.gc_stats().runs, 0u);
    EXPECT_GT(pm.gc_stats().runs, 0u);
}

// Construction-order independence: the same interval-heavy family built
// set-by-set in opposite orders must land on the same canonical node id
// under the chain encoding, and splitting it by half of its sets (built in
// a third order) must return that half and the rest built on their own.
TEST(ZddDifferential, ChainCanonicalAcrossConstructionOrder) {
    Rng rng(23);
    DdOptions chained = stress_options();
    chained.chain_nodes = true;
    ZddManager mgr(kChainVars, chained);
    for (int round = 0; round < 40; ++round) {
        const Family fam = random_interval_family(rng, 1 + rng.below(15));
        const Zdd fwd = to_zdd(mgr, fam);
        Zdd rev = mgr.empty();
        for (auto it = fam.rbegin(); it != fam.rend(); ++it)
            rev = mgr.union_(rev,
                             cube(mgr, std::vector<Var>(it->begin(), it->end())));
        ASSERT_EQ(fwd.id(), rev.id());

        Family half, rest;
        for (const Set& s : fam)
            (half.size() <= rest.size() ? half : rest).insert(s);
        Zdd half_rev = mgr.empty();
        for (auto it = half.rbegin(); it != half.rend(); ++it)
            half_rev = mgr.union_(
                half_rev, cube(mgr, std::vector<Var>(it->begin(), it->end())));
        const auto [in, out] = mgr.split(rev, half_rev);
        ASSERT_EQ(in.id(), to_zdd(mgr, half).id());
        ASSERT_EQ(out.id(), to_zdd(mgr, rest).id());
        ASSERT_EQ(mgr.diff(fwd, half_rev).id(), out.id());
    }
    EXPECT_GT(mgr.chain_stats().nodes_made, 0u);
}

}  // namespace
