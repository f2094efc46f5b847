// Implicit covering-table construction: rows are signature classes of onset
// minterms; validated against an explicit minterm-by-minterm table.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "gen/suites.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using ucp::cov::Index;
using ucp::cover::build_covering_table;
using ucp::cover::CoveringTable;
using ucp::cover::PrimeMethod;
using ucp::cover::RowMethod;
using ucp::cover::TableBuildOptions;
using ucp::pla::Pla;

Pla random_pla(std::uint64_t seed, std::uint32_t n, std::uint32_t m,
               std::uint32_t cubes = 12) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = n;
    opt.num_outputs = m;
    opt.num_cubes = cubes;
    opt.literal_prob = 0.55;
    opt.dc_fraction = 0.2;
    opt.seed = seed;
    return ucp::gen::random_pla(opt);
}

/// Explicit reference: one row per (output, onset minterm), distinct
/// signatures only. Returns the multiset of row signatures (as sets of
/// prime indices).
std::set<std::vector<Index>> explicit_signatures(const Pla& pla,
                                                 const ucp::pla::Cover& primes) {
    const auto& s = pla.space();
    std::set<std::vector<Index>> rows;
    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        for (std::uint64_t a = 0; a < (1ULL << s.num_inputs); ++a) {
            if (!pla.on.eval({a}, k)) continue;
            if (pla.dc.eval({a}, k)) continue;  // care semantics
            std::vector<Index> sig;
            for (std::size_t j = 0; j < primes.size(); ++j) {
                if (primes[j].out(s, k) &&
                    primes[j].covers_assignment(s, {a}))
                    sig.push_back(static_cast<Index>(j));
            }
            EXPECT_FALSE(sig.empty());
            rows.insert(std::move(sig));
        }
    }
    return rows;
}

/// Same rows in the same order, entry by entry.
bool same_rows(const ucp::cov::CoverMatrix& a, const ucp::cov::CoverMatrix& b) {
    if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols()) return false;
    for (Index i = 0; i < a.num_rows(); ++i)
        if (a.row(i) != b.row(i)) return false;
    return true;
}

TEST(TableBuilder, SignatureClassesMatchExplicitEnumeration) {
    const auto counter = [](const char* name) {
        return ucp::stats::counter(name).value();
    };
    const std::uint64_t disjoint0 = counter("cover.box_disjoint");
    const std::uint64_t contained0 = counter("cover.box_contained");
    const std::uint64_t splits0 = counter("cover.dd_splits");

    ucp::Rng seeds(81);
    std::vector<Pla> plas;
    for (int trial = 0; trial < 12; ++trial)
        plas.push_back(random_pla(seeds(), 6, 1 + trial % 3));
    // Wider functions, where the class supercubes settle most pairs.
    for (std::uint32_t trial = 0; trial < 6; ++trial)
        plas.push_back(
            random_pla(seeds(), 10 + trial % 3, 1 + trial % 2, 20 + 2 * trial));

    for (const Pla& p : plas) {
        for (const bool chain : {true, false}) {
            SCOPED_TRACE(p.name + (chain ? " chain on" : " chain off"));
            TableBuildOptions opt;
            opt.dd.chain_nodes = chain;
            opt.row_method = RowMethod::kImplicit;
            const CoveringTable t = build_covering_table(p, opt);
            opt.row_method = RowMethod::kExplicit;
            EXPECT_TRUE(same_rows(t.matrix, build_covering_table(p, opt).matrix));

            const auto expected = explicit_signatures(p, t.primes);
            std::set<std::vector<Index>> got;
            for (Index i = 0; i < t.matrix.num_rows(); ++i)
                got.insert(t.matrix.row(i));
            EXPECT_EQ(got, expected);
            EXPECT_EQ(t.matrix.num_rows(), expected.size());
        }
    }
    // Both cube tests and the ZDD split must each have settled some pairs.
    EXPECT_GT(counter("cover.box_disjoint"), disjoint0);
    EXPECT_GT(counter("cover.box_contained"), contained0);
    EXPECT_GT(counter("cover.dd_splits"), splits0);
}

TEST(TableBuilder, OnsetMintermCountMatches) {
    const Pla p = random_pla(7, 6, 2);
    const CoveringTable t = build_covering_table(p);
    double count = 0;
    const auto& s = p.space();
    for (std::uint32_t k = 0; k < s.num_outputs; ++k)
        for (std::uint64_t a = 0; a < (1ULL << s.num_inputs); ++a)
            if (p.on.eval({a}, k) && !p.dc.eval({a}, k)) count += 1;
    EXPECT_DOUBLE_EQ(t.onset_minterms, count);
}

TEST(TableBuilder, PrimeMethodsAgree) {
    // Every generator gives the same primes in the same order, so the matrix
    // does not depend on which one ran; multi-output functions included (the
    // implicit generator works on h(x, y)).
    ucp::Rng seeds(83);
    std::vector<Pla> plas;
    for (int trial = 0; trial < 12; ++trial)
        plas.push_back(random_pla(seeds(), 7, 1 + trial % 4));
    plas.push_back(ucp::gen::instance_by_name("t1"));  // kAuto hands it over
    for (const Pla& p : plas) {
        SCOPED_TRACE(p.name);
        TableBuildOptions opt;
        opt.method = PrimeMethod::kConsensus;
        const CoveringTable ref = build_covering_table(p, opt);
        EXPECT_EQ(ref.prime_method, PrimeMethod::kConsensus);
        for (const PrimeMethod m : {PrimeMethod::kImplicit, PrimeMethod::kAuto}) {
            opt.method = m;
            const CoveringTable t = build_covering_table(p, opt);
            if (m == PrimeMethod::kImplicit)
                EXPECT_EQ(t.prime_method, PrimeMethod::kImplicit);
            EXPECT_EQ(t.primes.to_string(), ref.primes.to_string());
            EXPECT_TRUE(same_rows(t.matrix, ref.matrix));
        }
    }
}

TEST(TableBuilder, AutoPrimesTakeTheCheaperGenerator) {
    // kAuto keeps a function on consensus while consensus stays within its
    // budget (a sparse, wide function absorbs almost no cube) and hands it to
    // the implicit generator once consensus absorbs cubes by the dozen.
    ucp::gen::RandomPlaOptions wide;
    wide.num_inputs = 24;
    wide.num_cubes = 24;
    wide.literal_prob = 0.5;
    wide.dc_fraction = 0.0;
    wide.seed = 5;
    const std::pair<Pla, PrimeMethod> cases[] = {
        {ucp::gen::random_pla(wide), PrimeMethod::kConsensus},
        {ucp::gen::instance_by_name("ti"), PrimeMethod::kConsensus},
        {ucp::gen::instance_by_name("test4"), PrimeMethod::kImplicit},
        {ucp::gen::instance_by_name("prom2"), PrimeMethod::kImplicit},
    };
    auto& capped = ucp::stats::counter("primes.consensus_capped");
    for (const auto& [p, want] : cases) {
        SCOPED_TRACE(p.name);
        const std::uint64_t capped0 = capped.value();
        const CoveringTable t = build_covering_table(p);
        EXPECT_EQ(t.prime_method, want);
        EXPECT_EQ(t.row_method, RowMethod::kImplicit);
        EXPECT_EQ(capped.value() - capped0,
                  want == PrimeMethod::kImplicit ? 1u : 0u);
    }
}

TEST(TableBuilder, AutoHandsParity11ToTheImplicitGenerator) {
    // parity11 absorbs no cube, so only the pairwise consensus attempts
    // exceed kAuto's check limit; the implicit generator then gives the
    // columns, in the order, of unbudgeted consensus.
    const Pla p = ucp::gen::parity_pla(11);
    const CoveringTable t = build_covering_table(p);
    EXPECT_EQ(t.prime_method, PrimeMethod::kImplicit);
    TableBuildOptions opt;
    opt.method = PrimeMethod::kConsensus;
    const CoveringTable ref = build_covering_table(p, opt);
    EXPECT_EQ(ref.prime_method, PrimeMethod::kConsensus);
    EXPECT_EQ(t.primes.to_string(), ref.primes.to_string());
    EXPECT_TRUE(same_rows(t.matrix, ref.matrix));
}

TEST(TableBuilder, EssentialPrimesDetected) {
    // Parity: every onset minterm is its own prime → all essential.
    const Pla p = ucp::gen::parity_pla(4);
    const CoveringTable t = build_covering_table(p);
    EXPECT_EQ(t.num_essential_primes, 8u);
    EXPECT_EQ(t.primes.size(), 8u);
    EXPECT_EQ(t.matrix.num_rows(), 8u);
}

TEST(TableBuilder, SolutionToCoverMapsColumns) {
    const Pla p = random_pla(5, 5, 1);
    const CoveringTable t = build_covering_table(p);
    ASSERT_GT(t.matrix.num_cols(), 0u);
    const auto cover = ucp::cover::solution_to_cover(t, {0});
    ASSERT_EQ(cover.size(), 1u);
    EXPECT_EQ(cover[0], t.primes[0]);
    EXPECT_THROW(ucp::cover::solution_to_cover(t, {static_cast<Index>(
                     t.primes.size() + 5)}),
                 std::invalid_argument);
}

TEST(TableBuilder, GuardsFire) {
    const Pla p = ucp::gen::majority_pla(7);
    TableBuildOptions opt;
    opt.max_cols = 3;
    EXPECT_THROW(build_covering_table(p, opt), std::runtime_error);
    TableBuildOptions opt2;
    opt2.max_rows = 2;
    EXPECT_THROW(build_covering_table(p, opt2), std::runtime_error);
}

}  // namespace
