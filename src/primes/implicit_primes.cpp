#include "primes/implicit_primes.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/trace.hpp"
#include "zdd/zdd_cubes.hpp"

namespace ucp::primes {

using zdd::BddId;
using zdd::BddManager;
using zdd::NodeId;
using zdd::Zdd;
using zdd::ZddManager;

zdd::BddId cover_to_bdd(BddManager& bmgr, const pla::Cover& cover) {
    const pla::CubeSpace& s = cover.space();
    UCP_REQUIRE(s.num_outputs == 0, "cover_to_bdd requires an input-only cover");
    UCP_REQUIRE(s.num_inputs <= bmgr.num_vars(), "BDD manager too small");

    BddId f = bmgr.bfalse();
    for (const auto& c : cover) {
        // Build the cube AND from the highest variable down so intermediate
        // BDDs stay small.
        BddId cube = bmgr.btrue();
        for (std::uint32_t i = s.num_inputs; i-- > 0;) {
            switch (c.in(s, i)) {
                case pla::Lit::kZero:
                    cube = bmgr.and_(bmgr.nvar(i), cube);
                    break;
                case pla::Lit::kOne:
                    cube = bmgr.and_(bmgr.var(i), cube);
                    break;
                case pla::Lit::kDontCare:
                    break;
                case pla::Lit::kEmpty:
                    cube = bmgr.bfalse();
                    break;
            }
            if (cube == bmgr.bfalse()) break;
        }
        f = bmgr.or_(f, cube);
    }
    return f;
}

namespace {

class PrimeBuilder {
public:
    PrimeBuilder(BddManager& bmgr, ZddManager& zmgr) : bmgr_(bmgr), zmgr_(zmgr) {}

    NodeId primes(BddId f) {
        if (f == zdd::kBddFalse) return zdd::kEmpty;
        if (f == zdd::kBddTrue) return zdd::kBase;
        const auto it = memo_.find(f);
        if (it != memo_.end()) return it->second;
        if (zmgr_.governor() != nullptr)
            throw_if_error(zmgr_.governor()->check(), "implicit_primes");

        const std::uint32_t v = bmgr_.var_of(f);
        const BddId f0 = bmgr_.lo_of(f);
        const BddId f1 = bmgr_.hi_of(f);
        const BddId fc = bmgr_.and_(f0, f1);

        const NodeId pc = primes(fc);
        const NodeId p0 = primes(f0);
        const NodeId p1 = primes(f1);

        // Primes mentioning x̄ / x are primes of the cofactor that are not
        // implicants (equivalently, not primes) of f0·f1.
        const Zdd pcz = zmgr_.handle(pc);
        const Zdd only0 = zmgr_.diff(zmgr_.handle(p0), pcz);
        const Zdd only1 = zmgr_.diff(zmgr_.handle(p1), pcz);

        // Attach the literal variables. All primes of cofactors contain only
        // literals of inputs > v, so direct node construction keeps ordering.
        const Zdd with_neg =
            zmgr_.handle(zmgr_.make(zdd::neg_lit(v), zdd::kEmpty, only0.id()));
        const Zdd lo_h = zmgr_.union_(pcz, with_neg);
        const NodeId r = zmgr_.make(zdd::pos_lit(v), lo_h.id(), only1.id());
        memo_.emplace(f, r);
        roots_.push_back(zmgr_.handle(r));  // pin memoised results across GC
        return r;
    }

private:
    BddManager& bmgr_;
    ZddManager& zmgr_;
    std::unordered_map<BddId, NodeId> memo_;
    std::vector<Zdd> roots_;
};

}  // namespace

ImplicitPrimeResult implicit_primes(ZddManager& zmgr, const pla::Cover& care,
                                    const zdd::DdOptions& dd) {
    TRACE_SPAN("implicit_primes");
    const std::uint32_t n = care.space().num_inputs, m = care.space().num_outputs;
    UCP_REQUIRE(2 * (n + m) <= zmgr.num_vars(),
                "ZDD manager needs 2 variables per input and output");

    BddManager bmgr(n + m, dd);
    BddId h = m == 0 ? cover_to_bdd(bmgr, care) : bmgr.btrue();
    for (std::uint32_t k = m; k-- > 0;)
        h = bmgr.and_(bmgr.or_(bmgr.var(n + k),
                               cover_to_bdd(bmgr, care.restricted_to_output(k))),
                      h);

    PrimeBuilder builder(bmgr, zmgr);
    Zdd primes = zmgr.handle(builder.primes(h));
    if (m > 0) {  // drop the all-y cube, which asserts no output
        std::vector<zdd::LitSpec> all_y(n + m, zdd::LitSpec::kDontCare);
        std::fill(all_y.begin() + n, all_y.end(), zdd::LitSpec::kOne);
        primes = zmgr.diff(primes, zdd::cube_as_literal_set(zmgr, all_y));
    }

    ImplicitPrimeResult result{primes, zmgr.count(primes), zmgr.node_count(primes),
                               bmgr.size()};
    return result;
}

pla::Cover primes_zdd_to_cover(const ZddManager& zmgr, const Zdd& primes,
                               std::uint32_t num_inputs,
                               std::uint32_t num_outputs) {
    const pla::CubeSpace s{num_inputs, num_outputs};
    pla::Cover out(s);
    const auto specs =
        zdd::decode_literal_sets(zmgr, primes, num_inputs + num_outputs);
    for (const auto& spec : specs) {
        pla::Cube c = pla::Cube::full_inputs(s);
        for (std::uint32_t i = 0; i < num_inputs; ++i) {
            switch (spec[i]) {
                case zdd::LitSpec::kZero:
                    c.set_in(s, i, pla::Lit::kZero);
                    break;
                case zdd::LitSpec::kOne:
                    c.set_in(s, i, pla::Lit::kOne);
                    break;
                case zdd::LitSpec::kDontCare:
                    break;
            }
        }
        // h is positive unate in y: no prime carries a negated y literal.
        for (std::uint32_t k = 0; k < num_outputs; ++k) {
            UCP_ASSERT(spec[num_inputs + k] != zdd::LitSpec::kZero);
            c.set_out(s, k, spec[num_inputs + k] == zdd::LitSpec::kDontCare);
        }
        out.add(std::move(c));
    }
    return out;
}

}  // namespace ucp::primes
