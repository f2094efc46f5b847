// Micro-benchmarks (google-benchmark) of the substrate operations that
// dominate the CC(s) column of the paper's tables: ZDD set algebra, the
// implicit prime recursion, signature-class refinement, explicit reductions
// and one subgradient iteration.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "lagrangian/subgradient.hpp"
#include "matrix/reductions.hpp"
#include "primes/implicit_primes.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "zdd/zdd.hpp"
#include "zdd/zdd_cubes.hpp"

namespace {

using ucp::Rng;
using ucp::zdd::LitSpec;
using ucp::zdd::Var;
using ucp::zdd::Zdd;
using ucp::zdd::ZddManager;

// A union of random minterms, each built by the pipeline's encoder.
Zdd random_family(ZddManager& mgr, Rng& rng, Var vars, std::size_t sets) {
    Zdd out = mgr.empty();
    for (std::size_t i = 0; i < sets; ++i) {
        std::vector<LitSpec> minterm(vars);
        for (LitSpec& l : minterm)
            l = rng.chance(0.3) ? LitSpec::kOne : LitSpec::kZero;
        out = mgr.union_(out, ucp::zdd::minterms_of_cube(mgr, minterm));
    }
    return out;
}

void BM_ZddUnion(benchmark::State& state) {
    ZddManager mgr(24);
    Rng rng(1);
    const Zdd a = random_family(mgr, rng, 24, 200);
    const Zdd b = random_family(mgr, rng, 24, 200);
    for (auto _ : state) benchmark::DoNotOptimize(mgr.union_(a, b).id());
}
BENCHMARK(BM_ZddUnion);  // cached-op latency (computed table hit)

void BM_ZddUnionCold(benchmark::State& state) {
    // Fresh manager per iteration: measures table construction + the real
    // recursion, not the computed-table hit.
    Rng rng(1);
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng local(rng());
        const Zdd a = random_family(mgr, local, 24, 120);
        const Zdd b = random_family(mgr, local, 24, 120);
        benchmark::DoNotOptimize(mgr.union_(a, b).id());
    }
}
BENCHMARK(BM_ZddUnionCold);

// ---- fused vs composed split ----------------------------------------------
// The pair measures (a ∩ b, a − b) computed by the fused single-recursion
// split vs intersect followed by diff. A fresh manager per iteration plus
// manual timing around the operator call(s) keeps the computed caches cold
// and the family-construction cost out of the clock, so the ratio is the
// honest speedup of the fusion. Deterministic seeds: both halves of the pair
// see identical families.

// split's operands in the cover phase share most of their sets (a is a
// signature class, b a column's minterms), so the benchmark uses overlapping
// families — on disjoint operands both halves are trivial and the pair
// measures nothing.
void BM_ZddSplitFused(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(6);
        const Zdd common = random_family(mgr, rng, 24, 150);
        const Zdd a = mgr.union_(common, random_family(mgr, rng, 24, 80));
        const Zdd b = mgr.union_(common, random_family(mgr, rng, 24, 80));
        ucp::Timer t;
        const auto halves = mgr.split(a, b);
        benchmark::DoNotOptimize(halves.first.id());
        benchmark::DoNotOptimize(halves.second.id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddSplitFused)->UseManualTime();

void BM_ZddSplitComposed(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(6);
        const Zdd common = random_family(mgr, rng, 24, 150);
        const Zdd a = mgr.union_(common, random_family(mgr, rng, 24, 80));
        const Zdd b = mgr.union_(common, random_family(mgr, rng, 24, 80));
        ucp::Timer t;
        benchmark::DoNotOptimize(mgr.intersect(a, b).id());
        benchmark::DoNotOptimize(mgr.diff(a, b).id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddSplitComposed)->UseManualTime();

// ---- end-to-end implicit covering phases ----------------------------------
// These exercise the whole engine (arena, unique table, computed caches, GC)
// on the workloads the solver actually runs.

void BM_ImplicitPrimes(benchmark::State& state) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = static_cast<std::uint32_t>(state.range(0));
    opt.num_outputs = 1;
    opt.num_cubes = opt.num_inputs * 6;
    opt.literal_prob = 0.55;
    opt.seed = 11;
    const auto pla = ucp::gen::random_pla(opt);
    const auto care = pla.on.restricted_to_output(0);
    for (auto _ : state) {
        ZddManager zmgr(2 * opt.num_inputs);
        benchmark::DoNotOptimize(
            ucp::primes::implicit_primes(zmgr, care).prime_count);
    }
}
BENCHMARK(BM_ImplicitPrimes)->Arg(8)->Arg(10)->Arg(12);

void BM_CoveringTableBuild(benchmark::State& state) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = static_cast<std::uint32_t>(state.range(0));
    opt.num_outputs = 1;
    opt.num_cubes = opt.num_inputs * 6;
    opt.literal_prob = 0.55;
    opt.seed = 13;
    const auto pla = ucp::gen::random_pla(opt);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ucp::cover::build_covering_table(pla).matrix.num_rows());
}
BENCHMARK(BM_CoveringTableBuild)->Arg(8)->Arg(10);

void BM_ExplicitReductions(benchmark::State& state) {
    ucp::gen::RandomScpOptions g;
    g.rows = static_cast<ucp::cov::Index>(state.range(0));
    g.cols = g.rows * 2;
    g.density = 0.05;
    g.seed = 17;
    const auto m = ucp::gen::random_scp(g);
    for (auto _ : state)
        benchmark::DoNotOptimize(ucp::cov::reduce(m).core.num_rows());
}
BENCHMARK(BM_ExplicitReductions)->Arg(100)->Arg(400)->Arg(1000);

// ---- chain-node encoding: chain vs plain pair ------------------------------
// The pair runs the same implicit-phase workload twice, with
// DdOptions::chain_nodes forced on and off (a build-free toggle — DESIGN.md
// §12). Arena node counts are exported next to wall time so the JSON shows
// the compression factor, not just the speed delta.

ucp::zdd::DdOptions chain_dd(bool on) {
    ucp::zdd::DdOptions dd;
    dd.chain_nodes = on;
    return dd;
}

// Implicit primes of a dense-literal PLA (literal_prob 0.9, 14 inputs): the
// positional cube encoding yields long sparse sets whose consecutive-level
// runs chain only sporadically — the honest neutral case for the encoding.
void chain_primes(benchmark::State& state, bool chains) {
    ucp::gen::RandomPlaOptions opt;
    opt.num_inputs = 14;
    opt.num_outputs = 1;
    opt.num_cubes = 84;
    opt.literal_prob = 0.9;
    opt.seed = 29;
    const auto pla = ucp::gen::random_pla(opt);
    const auto care = pla.on.restricted_to_output(0);
    std::size_t live = 0, primes = 0;
    for (auto _ : state) {
        ZddManager zmgr(2 * opt.num_inputs, chain_dd(chains));
        ucp::Timer t;
        const auto res = ucp::primes::implicit_primes(zmgr, care);
        state.SetIterationTime(t.seconds());
        live = zmgr.live_nodes();
        primes = res.prime_count;
    }
    state.counters["live_nodes"] = static_cast<double>(live);
    state.counters["primes"] = static_cast<double>(primes);
}

void BM_ZddImplicitPrimesDeepChain(benchmark::State& state) {
    chain_primes(state, true);
}
BENCHMARK(BM_ZddImplicitPrimesDeepChain)->UseManualTime()->Unit(
    benchmark::kMillisecond);

void BM_ZddImplicitPrimesDeepPlain(benchmark::State& state) {
    chain_primes(state, false);
}
BENCHMARK(BM_ZddImplicitPrimesDeepPlain)->UseManualTime()->Unit(
    benchmark::kMillisecond);

void BM_SubgradientAscent(benchmark::State& state) {
    const auto m = ucp::gen::cyclic_matrix(
        static_cast<ucp::cov::Index>(state.range(0)), 5);
    ucp::lagr::SubgradientOptions opt;
    opt.max_iterations = 100;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ucp::lagr::subgradient_ascent(m, opt).lb_fractional);
}
BENCHMARK(BM_SubgradientAscent)->Arg(30)->Arg(100)->Arg(300);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): maps the repo-wide --json[=path]
// flag onto google-benchmark's JSON reporter, so every bench_* binary shares
// the same machine-readable output interface.
int main(int argc, char** argv) {
    std::vector<char*> args;
    std::string out_flag, fmt_flag;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--mem-budget-mb=", 0) == 0) {
            // Same governor knob as the JsonReporter benches: latch the cap
            // into the environment so MemoryBudget::process_default() sees it.
            ::setenv("UCP_MEM_BUDGET", a.substr(16).c_str(), 1);
        } else if (a.rfind("--json", 0) == 0) {
            std::string path = "BENCH_micro_zdd.json";
            if (a.size() > 7 && a[6] == '=') path = a.substr(7);
            out_flag = "--benchmark_out=" + path;
            fmt_flag = "--benchmark_out_format=json";
            args.push_back(out_flag.data());
            args.push_back(fmt_flag.data());
        } else {
            args.push_back(argv[i]);
        }
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
