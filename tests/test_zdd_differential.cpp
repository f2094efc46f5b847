// Randomized differential tests of the ZDD engine against a std::set-based
// oracle. Every operation — including the fused compound operators — is
// replayed on an explicit set-of-sets model, and the resulting families are
// compared member-for-member. A deliberately tiny gc_threshold forces
// mark-and-sweep collections mid-stream, so the suite also exercises node
// reuse after sweeps and the cache-flush-on-gc path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "zdd/zdd.hpp"

namespace {

using ucp::Rng;
using ucp::zdd::DdOptions;
using ucp::zdd::Var;
using ucp::zdd::Zdd;
using ucp::zdd::ZddManager;

using Set = std::set<Var>;
using Family = std::set<Set>;

Zdd to_zdd(ZddManager& mgr, const Family& fam) {
    Zdd out = mgr.empty();
    for (const Set& s : fam)
        out = mgr.union_(out, mgr.set_of(std::vector<Var>(s.begin(), s.end())));
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

Family o_subset0(const Family& a, Var v) {
    Family out;
    for (const Set& s : a)
        if (!s.count(v)) out.insert(s);
    return out;
}

Family o_subset1(const Family& a, Var v) {
    Family out;
    for (const Set& s : a)
        if (s.count(v)) {
            Set t = s;
            t.erase(v);
            out.insert(std::move(t));
        }
    return out;
}

Family o_change(const Family& a, Var v) {
    Family out;
    for (const Set& s : a) {
        Set t = s;
        if (!t.erase(v)) t.insert(v);
        out.insert(std::move(t));
    }
    return out;
}

Family o_product(const Family& a, const Family& b) {
    Family out;
    for (const Set& s : a)
        for (const Set& t : b) {
            Set u = s;
            u.insert(t.begin(), t.end());
            out.insert(std::move(u));
        }
    return out;
}

bool is_subset(const Set& s, const Set& t) {
    return std::includes(t.begin(), t.end(), s.begin(), s.end());
}

Family o_sup_set(const Family& a, const Family& b) {
    Family out;
    for (const Set& f : a)
        for (const Set& g : b)
            if (is_subset(g, f)) {
                out.insert(f);
                break;
            }
    return out;
}

Family o_sub_set(const Family& a, const Family& b) {
    Family out;
    for (const Set& f : a)
        for (const Set& g : b)
            if (is_subset(f, g)) {
                out.insert(f);
                break;
            }
    return out;
}

Family o_minimal(const Family& a) {
    Family out;
    for (const Set& f : a) {
        bool minimal = true;
        for (const Set& g : a)
            if (g != f && is_subset(g, f)) {
                minimal = false;
                break;
            }
        if (minimal) out.insert(f);
    }
    return out;
}

Family o_maximal(const Family& a) {
    Family out;
    for (const Set& f : a) {
        bool maximal = true;
        for (const Set& g : a)
            if (g != f && is_subset(f, g)) {
                maximal = false;
                break;
            }
        if (maximal) out.insert(f);
    }
    return out;
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

// One randomized trajectory: a pool of oracle families, random binary/unary
// ops applied to random pool members, ZDD and oracle evolved in lockstep and
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
        const Var v = static_cast<Var>(rng.below(kVars));
        Family expect;
        Zdd got = mgr.empty();
        switch (rng.below(12)) {
            case 0:
                expect = o_union(oracle[i], oracle[j]);
                got = mgr.union_(dd[i], dd[j]);
                break;
            case 1:
                expect = o_intersect(oracle[i], oracle[j]);
                got = mgr.intersect(dd[i], dd[j]);
                break;
            case 2:
                expect = o_diff(oracle[i], oracle[j]);
                got = mgr.diff(dd[i], dd[j]);
                break;
            case 3:
                expect = o_subset0(oracle[i], v);
                got = mgr.subset0(dd[i], v);
                break;
            case 4:
                expect = o_subset1(oracle[i], v);
                got = mgr.subset1(dd[i], v);
                break;
            case 5:
                expect = o_change(oracle[i], v);
                got = mgr.change(dd[i], v);
                break;
            case 6:
                expect = o_product(oracle[i], oracle[j]);
                got = mgr.product(dd[i], dd[j]);
                break;
            case 7:
                expect = o_sup_set(oracle[i], oracle[j]);
                got = mgr.sup_set(dd[i], dd[j]);
                break;
            case 8:
                expect = o_sub_set(oracle[i], oracle[j]);
                got = mgr.sub_set(dd[i], dd[j]);
                break;
            case 9:
                expect = o_minimal(oracle[i]);
                got = mgr.minimal(dd[i]);
                break;
            case 10:
                expect = o_maximal(oracle[i]);
                got = mgr.maximal(dd[i]);
                break;
            case 11: {
                // Fused: (a ∩ b, a − b) in one walk; both halves checked.
                const auto [in, out] = mgr.split(dd[i], dd[j]);
                ASSERT_EQ(to_family(mgr, in), o_intersect(oracle[i], oracle[j]))
                    << "step " << step << " seed " << seed;
                expect = o_diff(oracle[i], oracle[j]);
                got = out;
                break;
            }
        }
        ASSERT_EQ(to_family(mgr, got), expect)
            << "step " << step << " seed " << seed;

        // Replace a random pool slot so families keep evolving.
        const std::size_t k = rng.below(oracle.size());
        oracle[k] = std::move(expect);
        dd[k] = got;

        // Count queries ride along on every step.
        ASSERT_DOUBLE_EQ(mgr.count(dd[k]),
                         static_cast<double>(oracle[k].size()));
        ASSERT_EQ(mgr.has_empty_set(dd[k]), oracle[k].count(Set{}) != 0);
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

// Fused operators must return the *same canonical node* as their composed
// counterparts — structural equality by id(), not just member equality.
TEST(ZddDifferential, FusedOpsAreStructurallyIdentical) {
    Rng rng(7);
    ZddManager mgr(12, stress_options());
    for (int round = 0; round < 50; ++round) {
        const Zdd a = to_zdd(mgr, random_oracle_family(rng, 12, 1 + rng.below(20)));
        const Zdd b = to_zdd(mgr, random_oracle_family(rng, 12, 1 + rng.below(20)));

        const auto [in, out] = mgr.split(a, b);
        EXPECT_EQ(in.id(), mgr.intersect(a, b).id());
        EXPECT_EQ(out.id(), mgr.diff(a, b).id());
        EXPECT_EQ(mgr.non_sub_set(a, b).id(),
                  mgr.diff(a, mgr.sub_set(a, b)).id());
        EXPECT_EQ(mgr.non_sup_set(a, b).id(),
                  mgr.diff(a, mgr.sup_set(a, b)).id());

        for (Var v = 0; v < 12; ++v) {
            const auto [lo, hi] = mgr.cofactors(a, v);
            EXPECT_EQ(lo.id(), mgr.subset0(a, v).id());
            EXPECT_EQ(hi.id(), mgr.subset1(a, v).id());
        }
    }
}

// minimal/maximal against both the oracle and their textbook compositions.
TEST(ZddDifferential, MinimalMaximalMatchOracle) {
    Rng rng(13);
    ZddManager mgr(10, stress_options());
    for (int round = 0; round < 60; ++round) {
        const Family fam = random_oracle_family(rng, 10, 1 + rng.below(25));
        const Zdd a = to_zdd(mgr, fam);
        EXPECT_EQ(to_family(mgr, mgr.minimal(a)), o_minimal(fam));
        EXPECT_EQ(to_family(mgr, mgr.maximal(a)), o_maximal(fam));
    }
}

// ---- chain-node encoding: chain-on vs chain-off differential ---------------
//
// Interval-heavy families make the chain encoding actually fire (runs of
// consecutive levels collapse into one ⟨t:b⟩ node). Two managers — one with
// chain nodes, one without — evolve in lockstep against the std::set oracle;
// every operator result must enumerate to the same family in both encodings,
// and the id-level canonicality of fused operators must hold inside each
// manager independently. The stress options keep the GC threshold tiny so
// the sweeps repeatedly walk (and the free list recycles) chain nodes.

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
        const Var v = static_cast<Var>(rng.below(kChainVars));
        Family expect;
        Zdd cgot = cm.empty(), pgot = pm.empty();
        switch (rng.below(8)) {
            case 0:
                expect = o_union(oracle[i], oracle[j]);
                cgot = cm.union_(cdd[i], cdd[j]);
                pgot = pm.union_(pdd[i], pdd[j]);
                break;
            case 1: {
                const auto [cand, cdiff] = cm.split(cdd[i], cdd[j]);
                const auto [pand, pdiff] = pm.split(pdd[i], pdd[j]);
                ASSERT_EQ(to_family(cm, cand), o_intersect(oracle[i], oracle[j]));
                ASSERT_EQ(to_family(pm, pand), o_intersect(oracle[i], oracle[j]));
                expect = o_diff(oracle[i], oracle[j]);
                cgot = cdiff;
                pgot = pdiff;
                break;
            }
            case 2:
                expect = o_product(oracle[i], oracle[j]);
                cgot = cm.product(cdd[i], cdd[j]);
                pgot = pm.product(pdd[i], pdd[j]);
                break;
            case 3:
                expect = o_diff(oracle[i], o_sup_set(oracle[i], oracle[j]));
                cgot = cm.non_sup_set(cdd[i], cdd[j]);
                pgot = pm.non_sup_set(pdd[i], pdd[j]);
                break;
            case 4:
                expect = o_diff(oracle[i], o_sub_set(oracle[i], oracle[j]));
                cgot = cm.non_sub_set(cdd[i], cdd[j]);
                pgot = pm.non_sub_set(pdd[i], pdd[j]);
                break;
            case 5:
                expect = o_minimal(oracle[i]);
                cgot = cm.minimal(cdd[i]);
                pgot = pm.minimal(pdd[i]);
                break;
            case 6:
                expect = o_maximal(oracle[i]);
                cgot = cm.maximal(cdd[i]);
                pgot = pm.maximal(pdd[i]);
                break;
            case 7: {
                expect = o_subset1(oracle[i], v);
                const auto [clo, chi] = cm.cofactors(cdd[i], v);
                const auto [plo, phi] = pm.cofactors(pdd[i], v);
                ASSERT_EQ(to_family(cm, clo), o_subset0(oracle[i], v));
                ASSERT_EQ(to_family(pm, plo), o_subset0(oracle[i], v));
                cgot = chi;
                pgot = phi;
                break;
            }
        }
        ASSERT_EQ(to_family(cm, cgot), expect) << "chain-on step " << step;
        ASSERT_EQ(to_family(pm, pgot), expect) << "chain-off step " << step;
        ASSERT_DOUBLE_EQ(cm.count(cgot), pm.count(pgot));

        const std::size_t k = rng.below(oracle.size());
        oracle[k] = std::move(expect);
        cdd[k] = cgot;
        pdd[k] = pgot;

        // Id-level canonicality inside each manager: the fused operators must
        // hand back the same canonical node as their composed counterparts —
        // in the chain encoding this only holds if every chain-split and
        // chain-merge case normalises identically on both routes.
        if (step % 25 == 0) {
            ASSERT_EQ(cm.minimal(cdd[i]).id(),
                      cm.minimal(cm.minimal(cdd[i])).id());
            ASSERT_EQ(pm.minimal(pdd[i]).id(),
                      pm.minimal(pm.minimal(pdd[i])).id());
            ASSERT_EQ(cm.non_sup_set(cdd[i], cdd[j]).id(),
                      cm.diff(cdd[i], cm.sup_set(cdd[i], cdd[j])).id());
            ASSERT_EQ(pm.non_sup_set(pdd[i], pdd[j]).id(),
                      pm.diff(pdd[i], pm.sup_set(pdd[i], pdd[j])).id());
            ASSERT_EQ(cm.split(cdd[i], cdd[j]).first.id(),
                      cm.intersect(cdd[i], cdd[j]).id());
            ASSERT_EQ(cm.split(cdd[i], cdd[j]).second.id(),
                      cm.diff(cdd[i], cdd[j]).id());
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
// set-by-set in opposite orders (and via the generic to_zdd path) must land
// on the same canonical node id under the chain encoding.
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
            rev = mgr.union_(
                rev, mgr.set_of(std::vector<Var>(it->begin(), it->end())));
        ASSERT_EQ(fwd.id(), rev.id());
        ASSERT_EQ(mgr.minimal(fwd).id(), mgr.minimal(rev).id());
    }
    EXPECT_GT(mgr.chain_stats().nodes_made, 0u);
}

// contains_set against the oracle under forced GC.
TEST(ZddDifferential, ContainsSetMatchesOracle) {
    Rng rng(17);
    ZddManager mgr(10, stress_options());
    const Family fam = random_oracle_family(rng, 10, 30);
    const Zdd a = to_zdd(mgr, fam);
    for (int round = 0; round < 200; ++round) {
        Set probe;
        for (Var v = 0; v < 10; ++v)
            if (rng.chance(0.35)) probe.insert(v);
        const Zdd single =
            mgr.set_of(std::vector<Var>(probe.begin(), probe.end()));
        EXPECT_EQ(mgr.contains_set(a, single), fam.count(probe) != 0);
    }
}

}  // namespace
