// ZDD manager: canonicity, set algebra and counting against brute-force
// reference sets, GC safety and handle semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "zdd/zdd.hpp"
#include "zdd_fixtures.hpp"

namespace {

using ucp::Rng;
using ucp::zdd::Var;
using ucp::zdd::Zdd;
using ucp::zdd::ZddManager;
using ucp::zdd::fixtures::cube;

using SetFamily = std::set<std::vector<Var>>;

Zdd from_family(ZddManager& mgr, const SetFamily& fam) {
    Zdd out = mgr.empty();
    for (const auto& s : fam) out = mgr.union_(out, cube(mgr, s));
    return out;
}

SetFamily to_family(const ZddManager& mgr, const Zdd& z) {
    SetFamily out;
    mgr.for_each_set(z, [&](const std::vector<Var>& s) {
        std::vector<Var> sorted = s;
        std::sort(sorted.begin(), sorted.end());
        out.insert(sorted);
    });
    return out;
}

SetFamily random_family(Rng& rng, Var num_vars, std::size_t count) {
    SetFamily fam;
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<Var> s;
        for (Var v = 0; v < num_vars; ++v)
            if (rng.chance(0.4)) s.push_back(v);
        fam.insert(std::move(s));
    }
    return fam;
}

TEST(Zdd, TerminalsAndNullHandle) {
    ZddManager mgr(8);
    EXPECT_TRUE(mgr.empty().is_empty());
    EXPECT_TRUE(mgr.base().is_base());
    EXPECT_EQ(mgr.empty().count(), 0.0);
    EXPECT_EQ(mgr.base().count(), 1.0);
    const Zdd s = cube(mgr, {3});
    EXPECT_EQ(s.count(), 1.0);
    EXPECT_EQ(to_family(mgr, s), SetFamily{{3}});

    // A default-constructed Zdd has no manager and counts as the empty
    // family instead of dereferencing null.
    const Zdd none;
    EXPECT_EQ(none.manager(), nullptr);
    EXPECT_TRUE(none.is_empty());
    EXPECT_EQ(none.count(), 0.0);
    EXPECT_EQ(none.node_count(), 0u);
}

TEST(Zdd, CanonicityStructuralSharing) {
    ZddManager mgr(8);
    const Zdd a = cube(mgr, {1, 3, 5});
    const Zdd b = cube(mgr, {1, 3, 5});
    EXPECT_EQ(a.id(), b.id());
    const Zdd u1 = mgr.union_(a, cube(mgr, {2}));
    const Zdd u2 = mgr.union_(cube(mgr, {2}), b);
    EXPECT_EQ(u1.id(), u2.id());
}

TEST(Zdd, CubeFamilyCount) {
    ZddManager mgr(16);
    const Zdd p = cube(mgr, {}, {0, 2, 4, 6, 8});
    EXPECT_EQ(p.count(), 32.0);
    EXPECT_EQ(p.node_count(), 5u);  // chain of 5 lo==hi nodes
    const Zdd q = cube(mgr, {1}, {0, 2});
    EXPECT_EQ(to_family(mgr, q), (SetFamily{{1}, {0, 1}, {1, 2}, {0, 1, 2}}));
}

TEST(Zdd, UnionIntersectDiffMatchBruteForce) {
    Rng rng(42);
    for (int trial = 0; trial < 30; ++trial) {
        ZddManager mgr(6);
        const SetFamily fa = random_family(rng, 6, 12);
        const SetFamily fb = random_family(rng, 6, 12);
        const Zdd a = from_family(mgr, fa);
        const Zdd b = from_family(mgr, fb);

        SetFamily fu, fi, fd;
        std::set_union(fa.begin(), fa.end(), fb.begin(), fb.end(),
                       std::inserter(fu, fu.end()));
        std::set_intersection(fa.begin(), fa.end(), fb.begin(), fb.end(),
                              std::inserter(fi, fi.end()));
        std::set_difference(fa.begin(), fa.end(), fb.begin(), fb.end(),
                            std::inserter(fd, fd.end()));

        EXPECT_EQ(to_family(mgr, mgr.union_(a, b)), fu);
        EXPECT_EQ(to_family(mgr, mgr.intersect(a, b)), fi);
        EXPECT_EQ(to_family(mgr, mgr.diff(a, b)), fd);
        EXPECT_EQ(mgr.union_(a, b).count(), static_cast<double>(fu.size()));
    }
}

TEST(Zdd, GcPreservesExternallyReferencedNodes) {
    ZddManager mgr(10);
    Rng rng(11);
    const SetFamily fam = random_family(rng, 10, 40);
    Zdd keep = from_family(mgr, fam);

    // Generate garbage.
    for (int i = 0; i < 200; ++i) {
        const Zdd t = cube(mgr, {}, {static_cast<Var>(i % 10),
                                     static_cast<Var>((i + 3) % 10)});
        (void)t;
    }
    const std::size_t before = mgr.live_nodes();
    mgr.gc();
    EXPECT_LE(mgr.live_nodes(), before);
    EXPECT_EQ(to_family(mgr, keep), fam);

    // Operations after GC still work and reuse freed slots.
    const Zdd again = from_family(mgr, fam);
    EXPECT_EQ(again.id(), keep.id());
}

TEST(Zdd, HandleCopyMoveSemantics) {
    ZddManager mgr(4);
    Zdd a = cube(mgr, {0, 1});
    Zdd b = a;           // copy
    Zdd c = std::move(a);  // move
    EXPECT_EQ(b.id(), c.id());
    b = c;   // self-ish assignment chain
    c = std::move(b);
    EXPECT_FALSE(c.is_empty());
    mgr.gc();
    EXPECT_EQ(to_family(mgr, c), (SetFamily{{0, 1}}));
}

}  // namespace
