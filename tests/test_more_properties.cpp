// Algebraic property tests across modules: Shannon expansion for URP covers,
// ZDD operator laws, idempotence of the minimiser phases, monotonicity of the
// subgradient trace.
#include <gtest/gtest.h>

#include <set>

#include "espresso/espresso.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "lagrangian/subgradient.hpp"
#include "pla/urp.hpp"
#include "primes/explicit_primes.hpp"
#include "solver/two_level.hpp"
#include "util/rng.hpp"
#include "zdd/zdd.hpp"
#include "zdd_fixtures.hpp"

namespace {

using ucp::Rng;
using ucp::pla::Cover;
using ucp::pla::Cube;
using ucp::pla::CubeSpace;
using ucp::pla::Lit;
using ucp::zdd::Var;
using ucp::zdd::Zdd;
using ucp::zdd::ZddManager;
using ucp::zdd::fixtures::cube;

Cover random_input_cover(Rng& rng, std::uint32_t n, std::size_t cubes,
                         double lit_prob) {
    const CubeSpace s{n, 0};
    Cover f(s);
    for (std::size_t c = 0; c < cubes; ++c) {
        Cube cube = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < n; ++i)
            if (rng.chance(lit_prob))
                cube.set_in(s, i, rng.chance(0.5) ? Lit::kOne : Lit::kZero);
        f.add(std::move(cube));
    }
    return f;
}

TEST(MoreProperties, ShannonExpansionHolds) {
    // f ≡ x·f_x ∪ x̄·f_x̄ for every variable (URP cofactor semantics).
    Rng rng(401);
    for (int trial = 0; trial < 15; ++trial) {
        const std::uint32_t n = 5;
        const CubeSpace s{n, 0};
        const Cover f = random_input_cover(rng, n, 6, 0.5);
        for (std::uint32_t v = 0; v < n; ++v) {
            Cube px = Cube::full_inputs(s), pnx = Cube::full_inputs(s);
            px.set_in(s, v, Lit::kOne);
            pnx.set_in(s, v, Lit::kZero);
            Cover expansion(s);
            Cover fx = ucp::pla::cofactor(f, px);
            Cover fnx = ucp::pla::cofactor(f, pnx);
            // Re-impose the literals.
            for (std::size_t i = 0; i < fx.size(); ++i) {
                Cube c = fx[i];
                c.set_in(s, v, Lit::kOne);
                expansion.add_if_valid(std::move(c));
            }
            for (std::size_t i = 0; i < fnx.size(); ++i) {
                Cube c = fnx[i];
                c.set_in(s, v, Lit::kZero);
                expansion.add_if_valid(std::move(c));
            }
            EXPECT_TRUE(ucp::pla::covers_equal(f, expansion)) << "var " << v;
        }
    }
}

TEST(MoreProperties, ZddAlgebraLaws) {
    Rng rng(403);
    ZddManager mgr(8);
    auto random_family = [&](std::size_t count) {
        Zdd out = mgr.empty();
        for (std::size_t i = 0; i < count; ++i) {
            std::vector<Var> s;
            for (Var v = 0; v < 8; ++v)
                if (rng.chance(0.35)) s.push_back(v);
            out = mgr.union_(out, cube(mgr, s));
        }
        return out;
    };
    for (int trial = 0; trial < 20; ++trial) {
        const Zdd a = random_family(8);
        const Zdd b = random_family(8);
        const Zdd c = random_family(8);
        // Distributivity of ∩ over ∪ (canonicity makes these id-comparable).
        EXPECT_EQ(mgr.intersect(a, mgr.union_(b, c)).id(),
                  mgr.union_(mgr.intersect(a, b), mgr.intersect(a, c)).id());
        // De-Morgan-ish via difference: a − (b ∪ c) = (a − b) − c.
        EXPECT_EQ(mgr.diff(a, mgr.union_(b, c)).id(),
                  mgr.diff(mgr.diff(a, b), c).id());
        // a = (a ∩ b) ∪ (a − b), and the two halves are disjoint.
        EXPECT_EQ(mgr.union_(mgr.intersect(a, b), mgr.diff(a, b)).id(), a.id());
        EXPECT_TRUE(mgr.intersect(mgr.intersect(a, b), mgr.diff(a, b)).is_empty());
    }
}

TEST(MoreProperties, ExpandIsIdempotentOnItsOutput) {
    Rng seeds(405);
    for (int trial = 0; trial < 8; ++trial) {
        ucp::gen::RandomPlaOptions g;
        g.num_inputs = 6;
        g.num_outputs = 2;
        g.num_cubes = 14;
        g.literal_prob = 0.55;
        g.dc_fraction = 0.2;
        g.seed = seeds();
        const auto p = ucp::gen::random_pla(g);
        const auto offsets = ucp::esp::compute_offsets(p);
        const Cover once = ucp::esp::expand(p.on, offsets);
        const Cover twice = ucp::esp::expand(once, offsets);
        // Expanding an already-expanded cover must not change the cube count
        // (cubes are already maximal under the expansion order).
        EXPECT_EQ(once.size(), twice.size());
        EXPECT_TRUE(ucp::pla::covers_equal(once, twice));
    }
}

TEST(MoreProperties, IrredundantIsIdempotent) {
    Rng seeds(407);
    for (int trial = 0; trial < 8; ++trial) {
        ucp::gen::RandomPlaOptions g;
        g.num_inputs = 6;
        g.num_outputs = 1;
        g.num_cubes = 16;
        g.literal_prob = 0.5;
        g.seed = seeds();
        const auto p = ucp::gen::random_pla(g);
        const auto offsets = ucp::esp::compute_offsets(p);
        const Cover e = ucp::esp::expand(p.on, offsets);
        const Cover once = ucp::esp::irredundant(e, p.dc);
        const Cover twice = ucp::esp::irredundant(once, p.dc);
        EXPECT_EQ(once.size(), twice.size());
    }
}

TEST(MoreProperties, SubgradientTraceInvariants) {
    ucp::gen::RandomScpOptions g;
    g.rows = 30;
    g.cols = 50;
    g.density = 0.1;
    g.seed = 17;
    const auto m = ucp::gen::random_scp(g);
    ucp::lagr::SubgradientOptions opt;
    opt.record_trace = true;
    const auto sub = ucp::lagr::subgradient_ascent(m, opt);
    ASSERT_FALSE(sub.trace.empty());
    double prev_lb = -1;
    ucp::cov::Cost prev_inc = std::numeric_limits<ucp::cov::Cost>::max();
    for (const auto& p : sub.trace) {
        EXPECT_GE(p.lb_best, prev_lb);          // LB monotone (paper §3.2)
        EXPECT_LE(p.incumbent, prev_inc);       // incumbent monotone
        EXPECT_GE(p.lb_best, p.z_lambda - 1e9); // trivially sane
        EXPECT_GT(p.step, 0.0);
        prev_lb = p.lb_best;
        prev_inc = p.incumbent;
    }
    EXPECT_NEAR(sub.lb_fractional, sub.trace.back().lb_best, 1e-9);
}

TEST(MoreProperties, CofactorOfCoverByItsOwnCubeIsTautology) {
    Rng rng(409);
    for (int trial = 0; trial < 20; ++trial) {
        const Cover f = random_input_cover(rng, 6, 8, 0.5);
        for (std::size_t i = 0; i < f.size(); ++i)
            EXPECT_TRUE(ucp::pla::is_tautology(ucp::pla::cofactor(f, f[i])));
    }
}

TEST(MoreProperties, PrimesOfPrimesAreTheSamePrimes) {
    // primes(primes(f)) == primes(f) — the prime set is closed.
    Rng rng(411);
    for (int trial = 0; trial < 6; ++trial) {
        const Cover f = random_input_cover(rng, 5, 6, 0.5);
        const auto p1 = ucp::primes::primes_by_consensus(f);
        const auto p2 = ucp::primes::primes_by_consensus(p1);
        std::set<std::string> s1, s2;
        for (const auto& c : p1) s1.insert(c.to_string(f.space()));
        for (const auto& c : p2) s2.insert(c.to_string(f.space()));
        EXPECT_EQ(s1, s2);
    }
}

}  // namespace
