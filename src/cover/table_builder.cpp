#include "cover/table_builder.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "primes/explicit_primes.hpp"
#include "primes/implicit_primes.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "zdd/zdd_cubes.hpp"

namespace ucp::cover {

using cov::Index;
using pla::Cover;
using pla::Cube;
using pla::CubeSpace;
using zdd::Zdd;
using zdd::ZddManager;

namespace {

/// Prime-count cap of both generators: past it either one stops with a
/// node-budget trip.
constexpr std::size_t kMaxPrimes = 200'000;
/// kAuto's consensus budget (DESIGN.md §8). A sparse function absorbs almost
/// no cube, so consensus finishes first; a dense one absorbs cubes by the
/// hundred and goes to the implicit generator. The check cap bounds a run
/// that absorbs nothing but has many primes.
constexpr primes::ConsensusBudget kConsensusBudget{16, std::size_t{1} << 20};

std::vector<zdd::LitSpec> cube_spec(const CubeSpace& s, const Cube& c) {
    std::vector<zdd::LitSpec> spec(s.num_inputs, zdd::LitSpec::kDontCare);
    for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
        switch (c.in(s, i)) {
            case pla::Lit::kZero: spec[i] = zdd::LitSpec::kZero; break;
            case pla::Lit::kOne: spec[i] = zdd::LitSpec::kOne; break;
            case pla::Lit::kDontCare: break;
            case pla::Lit::kEmpty:
                UCP_ASSERT(false);  // covers validated on construction
        }
    }
    return spec;
}

/// The implicit phase's class emission order, reproduced on plain signature
/// vectors: classes split member-first per processed column (ascending), so
/// the final order compares signatures element-wise ascending with a proper
/// prefix sorting AFTER its extensions. Both row paths dedupe through this
/// order, which is what makes their matrices bit-identical.
struct MemberFirstLess {
    bool operator()(const std::vector<Index>& a,
                    const std::vector<Index>& b) const noexcept {
        const std::size_t n = std::min(a.size(), b.size());
        for (std::size_t t = 0; t < n; ++t)
            if (a[t] != b[t]) return a[t] < b[t];
        return a.size() > b.size();
    }
};

/// Primes in the implicit generator's emission order: ZddManager::for_each_set
/// takes the hi branch first over ascending literal variables (pos_lit /
/// neg_lit), which is MemberFirstLess over each prime's variables. The y_k
/// literals of unasserted outputs need no key: they sort after every input
/// literal, and no two multi-output primes share an input part. Both prime
/// paths then give the table the same column order.
Cover in_implicit_order(const Cover& primes) {
    const CubeSpace& s = primes.space();
    std::vector<std::pair<std::vector<Index>, std::size_t>> keyed;
    keyed.reserve(primes.size());
    for (std::size_t p = 0; p < primes.size(); ++p) {
        std::vector<Index> vars;
        for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
            const pla::Lit l = primes[p].in(s, i);
            if (l == pla::Lit::kOne) vars.push_back(zdd::pos_lit(i));
            if (l == pla::Lit::kZero) vars.push_back(zdd::neg_lit(i));
        }
        keyed.emplace_back(std::move(vars), p);
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        return MemberFirstLess{}(a.first, b.first);
    });
    Cover out(s);
    out.reserve(primes.size());
    for (const auto& kp : keyed) out.add(primes[kp.second]);
    return out;
}

/// Multi-output primes of the care function in the implicit generator's
/// order, and the generator that produced them. kAuto runs consensus under
/// kConsensusBudget and hands a function that exceeds it to the implicit
/// generator; a node-budget trip there degrades to unbudgeted consensus (the
/// prime set of a function is canonical, so the columns are the same
/// whichever generator ran).
Cover generate_primes(const pla::Pla& pla, const TableBuildOptions& opt,
                      PrimeMethod& used) {
    TRACE_SPAN("table.primes");
    const CubeSpace& s = pla.space();
    Cover care = pla.on;
    care.append(pla.dc);

    used = PrimeMethod::kConsensus;
    if (opt.method == PrimeMethod::kAuto) {
        try {
            return in_implicit_order(primes::primes_by_consensus(
                care, kMaxPrimes, nullptr, kConsensusBudget));
        } catch (const ResourceError& e) {
            if (e.status() != Status::kNodeBudget) throw;
            stats::counter("primes.consensus_capped").add();
        }
    }
    if (opt.method != PrimeMethod::kConsensus) {
        try {
            ZddManager zmgr(2 * (s.num_inputs + s.num_outputs), opt.dd);
            const auto result = primes::implicit_primes(zmgr, care, opt.dd);
            if (result.prime_count > static_cast<double>(kMaxPrimes))
                throw ResourceError(Status::kNodeBudget,
                                    "implicit prime count exceeds the prime cap");
            used = PrimeMethod::kImplicit;
            return primes::primes_zdd_to_cover(zmgr, result.primes, s.num_inputs,
                                               s.num_outputs);
        } catch (const ResourceError& e) {
            // Graceful degradation: only a node-budget trip under kAuto falls
            // through to consensus — deadline/cancel must propagate, and an
            // explicitly requested implicit run must fail loudly.
            if (opt.method != PrimeMethod::kAuto ||
                e.status() != Status::kNodeBudget)
                throw;
            stats::counter("budget.zdd_fallbacks").add();
            TRACE_INSTANT("budget.zdd_fallback");
        }
    }
    return in_implicit_order(primes::primes_by_consensus(care, kMaxPrimes));
}

/// Invokes fn(assignment) for every input minterm of `c` (outputs ignored).
template <class Fn>
void for_each_minterm(const CubeSpace& s, const Cube& c, Fn&& fn) {
    std::vector<std::uint64_t> a(s.in_words(), 0);
    std::vector<std::uint32_t> free_pos;
    for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
        switch (c.in(s, i)) {
            case pla::Lit::kOne: a[i / 64] |= std::uint64_t{1} << (i % 64); break;
            case pla::Lit::kZero: break;
            case pla::Lit::kDontCare: free_pos.push_back(i); break;
            case pla::Lit::kEmpty: return;  // empty input part: no minterms
        }
    }
    const std::uint64_t total = std::uint64_t{1} << free_pos.size();
    for (std::uint64_t mask = 0; mask < total; ++mask) {
        for (std::size_t t = 0; t < free_pos.size(); ++t) {
            const std::uint32_t i = free_pos[t];
            if ((mask >> t) & 1)
                a[i / 64] |= std::uint64_t{1} << (i % 64);
            else
                a[i / 64] &= ~(std::uint64_t{1} << (i % 64));
        }
        fn(a);
    }
}

/// Explicit (ZDD-free) signature-class matrix: enumerate the care on-set
/// minterms per output, compute each one's covering-column signature and
/// dedupe in the implicit phase's class order.
OnsetMatrix onset_matrix_explicit(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows, Budget* governor) {
    const CubeSpace& s = pla.space();
    const std::size_t P = columns.size();
    // Enumeration work cap, applied per output across the on+dc cubes.
    constexpr std::uint64_t kPointCap = std::uint64_t{1} << 26;

    OnsetMatrix out;
    out.row_method = RowMethod::kExplicit;
    std::map<std::vector<Index>, Index> row_of_signature;
    std::vector<std::vector<Index>> rows;
    std::unordered_set<Index> essential_set;

    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        if (governor != nullptr)
            throw_if_error(governor->check(), "explicit onset rows");

        std::vector<Index> cols_k;
        for (Index j = 0; j < static_cast<Index>(P); ++j)
            if (columns[j].out(s, k)) cols_k.push_back(j);

        // Care on-set points of output k: ON minus DC (Espresso semantics).
        std::set<std::vector<std::uint64_t>> points;
        std::uint64_t point_budget = kPointCap;
        const auto charge_cube = [&](const Cube& c) {
            std::uint32_t free_bits = 0;
            for (std::uint32_t i = 0; i < s.num_inputs; ++i)
                if (c.in(s, i) == pla::Lit::kDontCare) ++free_bits;
            if (free_bits >= 26 ||
                (std::uint64_t{1} << free_bits) > point_budget)
                throw ResourceError(
                    Status::kNodeBudget,
                    "explicit row enumeration exceeds the point cap");
            point_budget -= std::uint64_t{1} << free_bits;
        };
        for (const auto& c : pla.on) {
            if (!c.out(s, k)) continue;
            charge_cube(c);
            for_each_minterm(s, c, [&](const std::vector<std::uint64_t>& a) {
                points.insert(a);
            });
        }
        for (const auto& c : pla.dc) {
            if (!c.out(s, k)) continue;
            charge_cube(c);
            for_each_minterm(s, c, [&](const std::vector<std::uint64_t>& a) {
                points.erase(a);
            });
        }
        if (points.empty()) continue;
        out.onset_minterms += static_cast<double>(points.size());

        std::set<std::vector<Index>, MemberFirstLess> sigs;
        for (const auto& a : points) {
            std::vector<Index> sig;
            for (const Index j : cols_k)
                if (columns[j].covers_assignment(s, a)) sig.push_back(j);
            if (sig.empty())
                throw BadInputError("columns do not cover the care on-set");
            sigs.insert(std::move(sig));
            if (sigs.size() > max_rows)
                throw ResourceError(Status::kNodeBudget,
                                    "signature classes exceed max_rows guard");
        }
        for (const auto& sig : sigs) {
            if (sig.size() == 1) essential_set.insert(sig[0]);
            const auto [it, inserted] = row_of_signature.emplace(
                sig, static_cast<Index>(rows.size()));
            if (inserted) rows.push_back(it->first);
        }
    }

    out.essential_columns = essential_set.size();
    out.matrix =
        cov::CoverMatrix::from_rows(static_cast<Index>(P), std::move(rows));
    return out;
}

/// ZDD partition-refinement signature-class matrix (the implicit phase).
OnsetMatrix onset_matrix_implicit(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows,
                                  const zdd::DdOptions& dd) {
    const CubeSpace& s = pla.space();
    const std::size_t P = columns.size();

    OnsetMatrix out;
    ZddManager mgr(s.num_inputs == 0 ? 1 : s.num_inputs, dd);

    // Per-column input minterm sets (shared across outputs).
    std::vector<Zdd> col_minterms;
    col_minterms.reserve(P);
    for (const auto& c : columns)
        col_minterms.push_back(zdd::minterms_of_cube(mgr, cube_spec(s, c)));

    // Signature-class rows, deduplicated across outputs.
    std::map<std::vector<Index>, Index> row_of_signature;
    std::vector<std::vector<Index>> rows;
    std::unordered_set<Index> essential_set;
    std::uint64_t box_disjoint = 0, box_contained = 0, dd_splits = 0,
                  dd_splits_empty = 0;

    for (std::uint32_t k = 0; k < s.num_outputs; ++k) {
        // U_k: care on-set minterms of output k. Points also listed as
        // don't-care are excluded — they need not be covered (Espresso
        // semantics, kept consistent with the baseline minimiser).
        Zdd onset = mgr.empty();
        {
            TRACE_SPAN("table.onset");
            for (const auto& c : pla.on) {
                if (!c.out(s, k)) continue;
                onset = mgr.union_(onset, zdd::minterms_of_cube(mgr, cube_spec(s, c)));
            }
            for (const auto& c : pla.dc) {
                if (!c.out(s, k)) continue;
                onset = mgr.diff(onset, zdd::minterms_of_cube(mgr, cube_spec(s, c)));
            }
            if (onset.is_empty()) continue;
            out.onset_minterms += mgr.count(onset);
        }

        // Partition refinement against each column asserting output k. `box`
        // is a supercube of the class, so a column that misses or contains it
        // settles the pair without the ZDD, with the push its answer makes.
        struct Class {
            Zdd set;
            std::vector<Index> sig;
            Cube box;
        };
        std::vector<Class> classes;
        classes.push_back({onset, {}, Cube::full(s)});
        {
            TRACE_SPAN("table.refine");
            for (Index j = 0; j < static_cast<Index>(P); ++j) {
                const Cube& col = columns[j];
                if (!col.out(s, k)) continue;
                if (mgr.governor() != nullptr)
                    throw_if_error(mgr.governor()->check(), "partition refinement");
                std::vector<Class> next;
                next.reserve(classes.size() * 2);
                for (auto& cl : classes) {
                    if (!cl.box.intersects_inputs(s, col)) {
                        ++box_disjoint;
                    } else if (col.contains_inputs(s, cl.box)) {
                        ++box_contained;
                        cl.sig.push_back(j);
                    } else {
                        ++dd_splits;
                        auto [inter, rest] = mgr.split(cl.set, col_minterms[j]);
                        dd_splits_empty += inter.is_empty();
                        if (!inter.is_empty()) {
                            std::vector<Index> sig1 = cl.sig;
                            sig1.push_back(j);
                            next.push_back({std::move(inter), std::move(sig1),
                                            cl.box.intersect(s, col)});
                            if (rest.is_empty()) continue;
                            cl.set = std::move(rest);
                        }
                    }
                    next.push_back(std::move(cl));
                }
                classes = std::move(next);
                if (classes.size() > max_rows)
                    throw ResourceError(Status::kNodeBudget,
                                        "signature classes exceed max_rows guard");
            }
        }

        TRACE_SPAN("table.rows");
        for (auto& cl : classes) {
            if (cl.sig.empty())
                throw BadInputError("columns do not cover the care on-set");
            if (cl.sig.size() == 1) essential_set.insert(cl.sig[0]);
            const auto [it, inserted] = row_of_signature.emplace(
                std::move(cl.sig), static_cast<Index>(rows.size()));
            if (inserted) rows.push_back(it->first);
        }
    }
    stats::counter("cover.box_disjoint").add(box_disjoint);
    stats::counter("cover.box_contained").add(box_contained);
    stats::counter("cover.dd_splits").add(dd_splits);
    stats::counter("cover.dd_splits_empty").add(dd_splits_empty);

    TRACE_SPAN("table.rows");
    out.essential_columns = essential_set.size();
    out.matrix =
        cov::CoverMatrix::from_rows(static_cast<Index>(P), std::move(rows));
    return out;
}

}  // namespace

OnsetMatrix onset_covering_matrix(const pla::Pla& pla, const Cover& columns,
                                  std::size_t max_rows,
                                  const zdd::DdOptions& dd, RowMethod method) {
    TRACE_SPAN("table.onset_matrix");
    const CubeSpace& s = pla.space();
    UCP_REQUIRE(s.num_outputs >= 1, "PLA must have at least one output");
    UCP_REQUIRE(columns.space() == s, "column cover space mismatch");

    if (method != RowMethod::kExplicit) {
        try {
            return onset_matrix_implicit(pla, columns, max_rows, dd);
        } catch (const ResourceError& e) {
            // Node-budget trips degrade to the explicit path under kAuto;
            // deadline/cancel (and forced-implicit runs) propagate.
            if (method == RowMethod::kImplicit ||
                e.status() != Status::kNodeBudget)
                throw;
            stats::counter("budget.zdd_fallbacks").add();
            TRACE_INSTANT("budget.zdd_fallback");
        }
    }
    return onset_matrix_explicit(pla, columns, max_rows, dd.governor);
}

CoveringTable build_covering_table(const pla::Pla& pla,
                                   const TableBuildOptions& opt) {
    Timer total;
    const CubeSpace& s = pla.space();
    UCP_REQUIRE(s.num_outputs >= 1, "PLA must have at least one output");

    CoveringTable table;
    {
        Timer pt;
        table.primes = generate_primes(pla, opt, table.prime_method);
        table.prime_seconds = pt.seconds();
    }
    const std::size_t P = table.primes.size();
    if (P > opt.max_cols)
        throw ResourceError(Status::kNodeBudget,
                            "prime count exceeds max_cols guard");
    if (P == 0) {
        // Empty on-set: nothing to cover.
        table.matrix = cov::CoverMatrix::from_rows(0, {});
        table.build_seconds = total.seconds();
        return table;
    }

    OnsetMatrix onset = onset_covering_matrix(pla, table.primes, opt.max_rows,
                                              opt.dd, opt.row_method);
    table.onset_minterms = onset.onset_minterms;
    table.num_essential_primes = onset.essential_columns;
    table.row_method = onset.row_method;

    table.column_prime.resize(P);
    for (Index j = 0; j < static_cast<Index>(P); ++j) table.column_prime[j] = j;

    // Column costs per the chosen model.
    std::vector<cov::Cost> costs(P, 1);
    switch (opt.cost_model) {
        case CostModel::kProducts:
            break;
        case CostModel::kProductsThenLiterals: {
            // W must exceed any achievable literal total so the product count
            // stays the primary key.
            table.weight_scale =
                static_cast<cov::Cost>(s.num_inputs) * static_cast<cov::Cost>(P) +
                1;
            for (Index j = 0; j < static_cast<Index>(P); ++j)
                costs[j] = table.weight_scale +
                           table.primes[j].input_literal_count(s);
            break;
        }
        case CostModel::kLiterals:
            for (Index j = 0; j < static_cast<Index>(P); ++j)
                costs[j] = std::max<cov::Cost>(
                    1, table.primes[j].input_literal_count(s));
            break;
    }
    // Rebuild with the chosen costs (rows are identical).
    {
        std::vector<std::vector<Index>> rows;
        rows.reserve(onset.matrix.num_rows());
        for (Index i = 0; i < onset.matrix.num_rows(); ++i)
            rows.push_back(onset.matrix.row(i));
        table.matrix = cov::CoverMatrix::from_rows(static_cast<Index>(P),
                                                   std::move(rows),
                                                   std::move(costs));
    }
    table.build_seconds = total.seconds();
    return table;
}

pla::Cover solution_to_cover(const CoveringTable& table,
                             const std::vector<Index>& solution) {
    pla::Cover out(table.primes.space());
    for (const Index j : solution) {
        UCP_REQUIRE(j < table.column_prime.size(), "solution column out of range");
        out.add(table.primes[table.column_prime[j]]);
    }
    return out;
}

}  // namespace ucp::cover
