// BDD engine: reduction/canonicity and AND/OR against truth tables.
#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "zdd/bdd.hpp"

namespace {

using ucp::Rng;
using ucp::zdd::BddId;
using ucp::zdd::BddManager;

/// Truth-table evaluation of a BDD on an assignment.
bool eval(const BddManager& mgr, BddId f, std::uint32_t assignment) {
    while (!mgr.is_const(f)) {
        const std::uint32_t v = mgr.var_of(f);
        f = ((assignment >> v) & 1) != 0 ? mgr.hi_of(f) : mgr.lo_of(f);
    }
    return f == ucp::zdd::kBddTrue;
}

TEST(Bdd, VarAndConstants) {
    BddManager mgr(4);
    EXPECT_TRUE(mgr.is_const(mgr.btrue()));
    const BddId x1 = mgr.var(1);
    EXPECT_TRUE(eval(mgr, x1, 0b0010));
    EXPECT_FALSE(eval(mgr, x1, 0b0000));
    const BddId nx1 = mgr.nvar(1);
    EXPECT_FALSE(eval(mgr, nx1, 0b0010));
}

TEST(Bdd, ReductionRuleCanonical) {
    BddManager mgr(4);
    // x OR NOT x == true; built structurally this must hit the terminal.
    const BddId f = mgr.or_(mgr.var(2), mgr.nvar(2));
    EXPECT_EQ(f, mgr.btrue());
    const BddId g = mgr.and_(mgr.var(2), mgr.nvar(2));
    EXPECT_EQ(g, mgr.bfalse());
}

TEST(Bdd, HashConsingSharesNodes) {
    BddManager mgr(4);
    const BddId a = mgr.and_(mgr.var(0), mgr.var(1));
    const BddId b = mgr.and_(mgr.var(1), mgr.var(0));
    EXPECT_EQ(a, b);
}

TEST(Bdd, RandomExpressionsMatchTruthTables) {
    Rng rng(2024);
    const std::uint32_t n = 5;
    // A random function as a truth table, and its BDD as the OR of its
    // minterms.
    const auto random_function = [&](BddManager& mgr, double p,
                                     std::vector<bool>& tt) {
        tt.assign(1u << n, false);
        BddId f = mgr.bfalse();
        for (std::uint32_t a = 0; a < (1u << n); ++a) {
            tt[a] = rng.chance(p);
            if (!tt[a]) continue;
            BddId m = mgr.btrue();
            for (std::uint32_t v = n; v-- > 0;)
                m = mgr.and_(((a >> v) & 1) != 0 ? mgr.var(v) : mgr.nvar(v), m);
            f = mgr.or_(f, m);
        }
        return f;
    };
    for (int trial = 0; trial < 25; ++trial) {
        BddManager mgr(n);
        std::vector<bool> tf, tg;
        const BddId f = random_function(mgr, 0.4, tf);
        const BddId g = random_function(mgr, 0.5, tg);
        const BddId f_and_g = mgr.and_(f, g);
        const BddId f_or_g = mgr.or_(f, g);
        for (std::uint32_t a = 0; a < (1u << n); ++a) {
            ASSERT_EQ(eval(mgr, f, a), tf[a]) << "assignment " << a;
            ASSERT_EQ(eval(mgr, f_and_g, a), tf[a] && tg[a]) << "assignment " << a;
            ASSERT_EQ(eval(mgr, f_or_g, a), tf[a] || tg[a]) << "assignment " << a;
        }
    }
}

}  // namespace
