// Prime generation: explicit consensus and implicit BDD→ZDD methods validated
// against a brute-force prime enumerator on small functions, and against each
// other on larger single- and multi-output functions.
#include <gtest/gtest.h>

#include <set>

#include "gen/pla_gen.hpp"
#include "gen/suites.hpp"
#include "pla/urp.hpp"
#include "primes/explicit_primes.hpp"
#include "primes/implicit_primes.hpp"
#include "util/rng.hpp"

namespace {

using ucp::Rng;
using ucp::pla::Cover;
using ucp::pla::Cube;
using ucp::pla::CubeSpace;
using ucp::pla::Lit;

Cover random_cover(Rng& rng, std::uint32_t n, std::uint32_t m,
                   std::size_t cubes, double lit_prob) {
    const CubeSpace s{n, m};
    Cover f(s);
    for (std::size_t c = 0; c < cubes; ++c) {
        Cube cube = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < n; ++i)
            if (rng.chance(lit_prob))
                cube.set_in(s, i, rng.chance(0.5) ? Lit::kOne : Lit::kZero);
        bool any = m == 0;
        for (std::uint32_t k = 0; k < m; ++k)
            if (rng.chance(0.6)) {
                cube.set_out(s, k, true);
                any = true;
            }
        if (!any) cube.set_out(s, 0, true);
        f.add(std::move(cube));
    }
    return f;
}

/// Is `c` an implicant of `f` (point containment, brute force)?
bool brute_implicant(const Cover& f, const Cube& c) {
    const CubeSpace& s = f.space();
    bool ok = true;
    f.for_each_assignment([&](std::uint64_t a) {
        if (!c.covers_assignment(s, {a})) return;
        if (s.num_outputs == 0) {
            if (!f.eval({a})) ok = false;
        } else {
            for (std::uint32_t k = 0; k < s.num_outputs; ++k)
                if (c.out(s, k) && !f.eval({a}, k)) ok = false;
        }
    });
    return ok;
}

/// All primes by brute force: every implicant cube, filtered by maximality.
std::set<std::string> brute_primes(const Cover& f) {
    const CubeSpace& s = f.space();
    std::vector<Cube> implicants;
    // Enumerate all 3^n input cubes × all output subsets.
    std::vector<std::uint32_t> digits(s.num_inputs, 0);
    const std::uint32_t out_limit =
        s.num_outputs == 0 ? 1 : (1u << s.num_outputs);
    while (true) {
        Cube base = Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < s.num_inputs; ++i)
            base.set_in(s, i,
                        digits[i] == 0 ? Lit::kDontCare
                                       : (digits[i] == 1 ? Lit::kZero : Lit::kOne));
        for (std::uint32_t om = s.num_outputs == 0 ? 0 : 1; om < out_limit; ++om) {
            Cube c = base;
            for (std::uint32_t k = 0; k < s.num_outputs; ++k)
                c.set_out(s, k, ((om >> k) & 1) != 0);
            if (brute_implicant(f, c)) implicants.push_back(c);
        }
        // Next cube in 3^n counter.
        std::uint32_t i = 0;
        for (; i < s.num_inputs; ++i) {
            if (++digits[i] < 3) break;
            digits[i] = 0;
        }
        if (i == s.num_inputs) break;
    }
    std::set<std::string> primes;
    for (const auto& c : implicants) {
        bool maximal = true;
        for (const auto& d : implicants)
            if (!(d == c) && d.contains(s, c)) maximal = false;
        if (maximal) primes.insert(c.to_string(s));
    }
    return primes;
}

std::set<std::string> cover_strings(const Cover& f) {
    std::set<std::string> out;
    for (const auto& c : f) out.insert(c.to_string(f.space()));
    return out;
}

TEST(ExplicitPrimes, SingleOutputMatchesBruteForce) {
    Rng rng(1);
    for (int trial = 0; trial < 15; ++trial) {
        const Cover f = random_cover(rng, 4, 1, 4 + trial % 4, 0.55);
        const Cover primes = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(primes), brute_primes(f)) << f.to_string();
    }
}

TEST(ExplicitPrimes, MultiOutputMatchesBruteForce) {
    Rng rng(2);
    for (int trial = 0; trial < 12; ++trial) {
        const Cover f = random_cover(rng, 3, 2, 4 + trial % 3, 0.5);
        const Cover primes = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(primes), brute_primes(f)) << f.to_string();
    }
}

TEST(ExplicitPrimes, ThreeOutputsMatchBruteForce) {
    // With ≥ 3 outputs, completeness needs the distance-0 output-part
    // consensus: cubes with overlapping-but-incomparable output sets (e.g.
    // {o0,o1} and {o1,o2}) merge into their output union. This is the
    // regression test for the bug the end-to-end stress suite caught.
    Rng rng(21);
    for (int trial = 0; trial < 10; ++trial) {
        const Cover f = random_cover(rng, 2, 3, 4 + trial % 3, 0.4);
        const Cover primes = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(primes), brute_primes(f)) << f.to_string();
    }
}

TEST(ExplicitPrimes, OutputConsensusRegression) {
    // Two universal cubes asserting {o1,o2} and {o0,o1}: the prime {o0,o1,o2}
    // must be produced.
    const CubeSpace s{2, 3};
    const Cover f = Cover::from_strings(s, {{"--", "011"}, {"--", "110"}});
    const Cover primes = ucp::primes::primes_by_consensus(f);
    EXPECT_EQ(cover_strings(primes), (std::set<std::string>{"-- 111"}));
}

TEST(ExplicitPrimes, InputOnlyCover) {
    Rng rng(3);
    const Cover f = random_cover(rng, 4, 0, 5, 0.5);
    const Cover primes = ucp::primes::primes_by_consensus(f);
    EXPECT_EQ(cover_strings(primes), brute_primes(f));
}

TEST(ExplicitPrimes, KnownExample) {
    // f = x0 x1 + x0' x2: primes are the two cubes plus consensus x1 x2.
    const CubeSpace s{3, 0};
    const Cover f = Cover::from_strings(s, {{"11-", ""}, {"0-1", ""}});
    const Cover primes = ucp::primes::primes_by_consensus(f);
    EXPECT_EQ(cover_strings(primes),
              (std::set<std::string>{"11-", "0-1", "-11"}));
}

/// The status of the ResourceError `fn` throws (kOk if it throws none).
template <class Fn>
ucp::Status resource_status(Fn&& fn) {
    try {
        fn();
    } catch (const ucp::ResourceError& e) {
        return e.status();
    }
    return ucp::Status::kOk;
}

TEST(ExplicitPrimes, StatsAndLimit) {
    Rng rng(4);
    const Cover f = random_cover(rng, 5, 1, 8, 0.5);
    ucp::primes::ConsensusStats stats;
    (void)ucp::primes::primes_by_consensus(f, 1u << 20, &stats);
    EXPECT_GT(stats.cubes_added, 0u);
    EXPECT_GT(stats.containment_checks, 0u);
    // The prime cap and both work limits are node-budget trips, not bad input.
    EXPECT_EQ(resource_status([&] { ucp::primes::primes_by_consensus(f, 2); }),
              ucp::Status::kNodeBudget);
    ucp::primes::ConsensusBudget checks;
    checks.max_checks = stats.containment_checks / 2;
    EXPECT_EQ(resource_status([&] {
                  ucp::primes::primes_by_consensus(f, 1u << 20, nullptr, checks);
              }),
              ucp::Status::kNodeBudget);
    // "1-" absorbs "11"; the run stops at the next insert.
    const Cover g = Cover::from_strings(CubeSpace{2, 0},
                                        {{"11", ""}, {"1-", ""}, {"0-", ""}});
    ucp::primes::ConsensusBudget absorbed;
    absorbed.max_absorbed = 0;
    EXPECT_EQ(resource_status([&] {
                  ucp::primes::primes_by_consensus(g, 1u << 20, nullptr,
                                                   absorbed);
              }),
              ucp::Status::kNodeBudget);
    // A budget the run stays within changes nothing; the check limit counts
    // consensus attempts and containment checks together.
    ucp::primes::ConsensusBudget ample;
    ample.max_absorbed = stats.cubes_absorbed;
    ample.max_checks = stats.consensus_attempts + stats.containment_checks;
    EXPECT_EQ(cover_strings(ucp::primes::primes_by_consensus(f, 1u << 20,
                                                             nullptr, ample)),
              cover_strings(ucp::primes::primes_by_consensus(f)));
}

TEST(ExplicitPrimes, CheckLimitCountsPairAttempts) {
    // Parity's minterm cubes have no consensus and absorb nothing: inserting
    // parity11's 1,024 cubes makes 1,047,552 containment checks, just under
    // 2^20, so only the pairwise attempts after them can stop the run.
    const Cover f = ucp::gen::parity_pla(11).on;
    ucp::primes::ConsensusStats stats;
    EXPECT_EQ(resource_status([&] {
                  ucp::primes::primes_by_consensus(
                      f, 1u << 20, &stats,
                      ucp::primes::ConsensusBudget{16, std::size_t{1} << 20});
              }),
              ucp::Status::kNodeBudget);
    EXPECT_EQ(stats.cubes_absorbed, 0u);
    EXPECT_EQ(stats.containment_checks, 1'047'552u);
    EXPECT_LE(stats.consensus_attempts + stats.containment_checks,
              (std::size_t{1} << 20) + f.size());
}

TEST(ExplicitPrimes, PrimesAreAntichainAndImplicants) {
    Rng rng(5);
    const Cover f = random_cover(rng, 5, 2, 8, 0.5);
    const Cover primes = ucp::primes::primes_by_consensus(f);
    const CubeSpace& s = f.space();
    for (std::size_t i = 0; i < primes.size(); ++i) {
        EXPECT_TRUE(brute_implicant(f, primes[i]));
        for (std::size_t j = 0; j < primes.size(); ++j)
            if (i != j) {
                EXPECT_FALSE(primes[i].contains(s, primes[j]));
            }
    }
}

TEST(TabularPrimes, MatchesConsensusOnRandomFunctions) {
    Rng rng(8);
    for (int trial = 0; trial < 15; ++trial) {
        const Cover f = random_cover(rng, 5 + trial % 3, 0, 5 + trial % 4, 0.5);
        const Cover qm = ucp::primes::primes_by_tabular(f);
        const Cover cons = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(qm), cover_strings(cons)) << f.to_string();
    }
}

TEST(TabularPrimes, KnownExampleAndGuards) {
    const CubeSpace s{3, 0};
    const Cover f = Cover::from_strings(s, {{"11-", ""}, {"0-1", ""}});
    const Cover qm = ucp::primes::primes_by_tabular(f);
    EXPECT_EQ(cover_strings(qm), (std::set<std::string>{"11-", "0-1", "-11"}));

    // Empty function → no primes; tautology → the universal cube.
    EXPECT_EQ(ucp::primes::primes_by_tabular(Cover(s)).size(), 0u);
    Cover taut(s);
    taut.add(Cube::full_inputs(s));
    const Cover tp = ucp::primes::primes_by_tabular(taut);
    ASSERT_EQ(tp.size(), 1u);
    EXPECT_EQ(tp[0].input_literal_count(s), 0u);

    // Guards: multi-output covers and oversized minterm expansions rejected.
    EXPECT_THROW(ucp::primes::primes_by_tabular(Cover(CubeSpace{3, 1})),
                 std::invalid_argument);
    EXPECT_THROW(ucp::primes::primes_by_tabular(Cover(CubeSpace{10, 0}), 512),
                 std::invalid_argument);
}

TEST(ImplicitPrimes, MatchesExplicitOnRandomFunctions) {
    // Input-only covers, multi-output covers (primes of h(x, y)), and the
    // multi-output rows of the Table-1/2 suites.
    Rng rng(6);
    std::vector<Cover> covers;
    for (int trial = 0; trial < 12; ++trial)
        covers.push_back(random_cover(rng, 6, 0, 6 + trial % 5, 0.45));
    for (int trial = 0; trial < 12; ++trial)
        covers.push_back(
            random_cover(rng, 6, 2 + trial % 3, 6 + trial % 5, 0.45));
    std::size_t suite_rows = 0;
    for (const auto& suite :
         {ucp::gen::difficult_cyclic_suite(), ucp::gen::challenging_suite()})
        for (const auto& e : suite) {
            if (e.pla.space().num_outputs < 2) continue;
            Cover care = e.pla.on;
            care.append(e.pla.dc);
            covers.push_back(std::move(care));
            ++suite_rows;
        }
    EXPECT_EQ(suite_rows, 8u);

    for (const Cover& f : covers) {
        const CubeSpace& s = f.space();
        SCOPED_TRACE(std::to_string(s.num_inputs) + " inputs, " +
                     std::to_string(s.num_outputs) + " outputs, " +
                     std::to_string(f.size()) + " cubes");
        ucp::zdd::ZddManager zmgr(2 * (s.num_inputs + s.num_outputs));
        const auto imp = ucp::primes::implicit_primes(zmgr, f);
        const Cover decoded = ucp::primes::primes_zdd_to_cover(
            zmgr, imp.primes, s.num_inputs, s.num_outputs);
        const Cover exp = ucp::primes::primes_by_consensus(f);
        EXPECT_EQ(cover_strings(decoded), cover_strings(exp));
        EXPECT_DOUBLE_EQ(imp.prime_count, static_cast<double>(exp.size()));
    }
}

TEST(ImplicitPrimes, TautologyAndEmpty) {
    const CubeSpace s{3, 0};
    ucp::zdd::ZddManager zmgr(6);
    Cover empty(s);
    const auto pe = ucp::primes::implicit_primes(zmgr, empty);
    EXPECT_TRUE(pe.primes.is_empty());

    Cover taut(s);
    taut.add(Cube::full_inputs(s));
    const auto pt = ucp::primes::implicit_primes(zmgr, taut);
    EXPECT_TRUE(pt.primes.is_base());  // single prime: the universal cube
}

TEST(ImplicitPrimes, CoverToBddRejectsOutputs) {
    ucp::zdd::BddManager bmgr(3);
    Cover f(CubeSpace{3, 1});
    EXPECT_THROW(ucp::primes::cover_to_bdd(bmgr, f), std::invalid_argument);
}

}  // namespace
