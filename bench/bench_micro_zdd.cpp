// Micro-benchmarks (google-benchmark) of the substrate operations that
// dominate the CC(s) column of the paper's tables: ZDD set algebra, the
// implicit prime recursion, signature-class refinement, explicit reductions
// and one subgradient iteration.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "cover/table_builder.hpp"
#include "cover/zdd_cover.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "lagrangian/subgradient.hpp"
#include "matrix/reductions.hpp"
#include "primes/implicit_primes.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "zdd/zdd.hpp"

namespace {

using ucp::Rng;
using ucp::zdd::Var;
using ucp::zdd::Zdd;
using ucp::zdd::ZddManager;

Zdd random_family(ZddManager& mgr, Rng& rng, Var vars, std::size_t sets) {
    Zdd out = mgr.empty();
    for (std::size_t i = 0; i < sets; ++i) {
        std::vector<Var> s;
        for (Var v = 0; v < vars; ++v)
            if (rng.chance(0.3)) s.push_back(v);
        out = mgr.union_(out, mgr.set_of(s));
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

void BM_ZddProduct(benchmark::State& state) {
    ZddManager mgr(24);
    Rng rng(2);
    const Zdd a = random_family(mgr, rng, 24, 40);
    const Zdd b = random_family(mgr, rng, 24, 40);
    for (auto _ : state) benchmark::DoNotOptimize(mgr.product(a, b).id());
}
BENCHMARK(BM_ZddProduct);

void BM_ZddSupSet(benchmark::State& state) {
    ZddManager mgr(24);
    Rng rng(3);
    const Zdd a = random_family(mgr, rng, 24, 200);
    const Zdd b = random_family(mgr, rng, 24, 50);
    for (auto _ : state) benchmark::DoNotOptimize(mgr.sup_set(a, b).id());
}
BENCHMARK(BM_ZddSupSet);

void BM_ZddMaximal(benchmark::State& state) {
    ZddManager mgr(24);
    Rng rng(4);
    const Zdd a = random_family(mgr, rng, 24, 300);
    for (auto _ : state) benchmark::DoNotOptimize(mgr.maximal(a).id());
}
BENCHMARK(BM_ZddMaximal);

// ---- fused vs composed compound operators ---------------------------------
// Each pair measures the same algebraic result computed by the fused
// single-recursion operator vs the classic two/three-operator composition.
// A fresh manager per iteration plus manual timing around the operator
// call(s) keeps the computed caches cold and the family-construction cost
// out of the clock, so the ratio is the honest speedup of the fusion.
// Deterministic seeds: both halves of a pair see identical families.

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

void BM_ZddNonSubSetFused(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(7);
        const Zdd a = random_family(mgr, rng, 24, 200);
        const Zdd b = random_family(mgr, rng, 24, 50);
        ucp::Timer t;
        benchmark::DoNotOptimize(mgr.non_sub_set(a, b).id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddNonSubSetFused)->UseManualTime();

void BM_ZddNonSubSetComposed(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(7);
        const Zdd a = random_family(mgr, rng, 24, 200);
        const Zdd b = random_family(mgr, rng, 24, 50);
        ucp::Timer t;
        benchmark::DoNotOptimize(mgr.diff(a, mgr.sub_set(a, b)).id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddNonSubSetComposed)->UseManualTime();

void BM_ZddNonSupSetFused(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(8);
        const Zdd a = random_family(mgr, rng, 24, 200);
        const Zdd b = random_family(mgr, rng, 24, 50);
        ucp::Timer t;
        benchmark::DoNotOptimize(mgr.non_sup_set(a, b).id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddNonSupSetFused)->UseManualTime();

void BM_ZddNonSupSetComposed(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(8);
        const Zdd a = random_family(mgr, rng, 24, 200);
        const Zdd b = random_family(mgr, rng, 24, 50);
        ucp::Timer t;
        benchmark::DoNotOptimize(mgr.diff(a, mgr.sup_set(a, b)).id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddNonSupSetComposed)->UseManualTime();

void BM_ZddCofactorsFused(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(9);
        const Zdd a = random_family(mgr, rng, 24, 300);
        ucp::Timer t;
        for (Var v = 0; v < 24; ++v) {
            const auto [lo, hi] = mgr.cofactors(a, v);
            benchmark::DoNotOptimize(lo.id() + hi.id());
        }
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddCofactorsFused)->UseManualTime();

void BM_ZddCofactorsComposed(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(9);
        const Zdd a = random_family(mgr, rng, 24, 300);
        ucp::Timer t;
        for (Var v = 0; v < 24; ++v) {
            const Zdd lo = mgr.subset0(a, v);
            const Zdd hi = mgr.subset1(a, v);
            benchmark::DoNotOptimize(lo.id() + hi.id());
        }
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddCofactorsComposed)->UseManualTime();

void BM_ZddMinimal(benchmark::State& state) {
    ZddManager mgr(24);
    Rng rng(5);
    const Zdd a = random_family(mgr, rng, 24, 300);
    for (auto _ : state) benchmark::DoNotOptimize(mgr.minimal(a).id());
}
BENCHMARK(BM_ZddMinimal);  // cached-op latency

void BM_ZddMinimalCold(benchmark::State& state) {
    for (auto _ : state) {
        ZddManager mgr(24);
        Rng rng(5);
        const Zdd a = random_family(mgr, rng, 24, 300);
        ucp::Timer t;
        benchmark::DoNotOptimize(mgr.minimal(a).id());
        state.SetIterationTime(t.seconds());
    }
}
BENCHMARK(BM_ZddMinimalCold)->UseManualTime();

// ---- end-to-end implicit covering phases ----------------------------------
// These exercise the whole engine (arena, unique table, computed caches, GC)
// on the workloads the solver actually runs, and export the cache counters
// so --json runs track hit rates and adaptive resizes over time.

void BM_ImplicitRowDominance(benchmark::State& state) {
    ucp::gen::RandomScpOptions g;
    g.rows = 4000;
    g.cols = 140;
    g.density = 0.12;
    g.seed = 21;
    const auto m = ucp::gen::random_scp(g);
    std::size_t rows_out = 0;
    for (auto _ : state)
        rows_out = ucp::cover::implicit_row_dominance(m).rows_out;
    state.counters["rows_out"] = static_cast<double>(rows_out);
}
BENCHMARK(BM_ImplicitRowDominance)->Unit(benchmark::kMillisecond);

void BM_MinimalCoversCyclic(benchmark::State& state) {
    const auto m = ucp::gen::cyclic_matrix(34, 12);
    ucp::zdd::ZddManager::CacheStats cs;
    for (auto _ : state) {
        ZddManager mgr(m.num_cols());
        benchmark::DoNotOptimize(
            ucp::cover::minimal_covers(mgr, m).id());
        cs = mgr.cache_stats();
    }
    state.counters["cache_hit_rate"] = cs.hit_rate();
    state.counters["cache_resizes"] = static_cast<double>(cs.resizes);
}
BENCHMARK(BM_MinimalCoversCyclic)->Unit(benchmark::kMillisecond);

void BM_MinimalCoversRandom(benchmark::State& state) {
    ucp::gen::RandomScpOptions g;
    g.rows = 30;
    g.cols = 28;
    g.density = 0.22;
    g.seed = 5;
    const auto m = ucp::gen::random_scp(g);
    ucp::zdd::ZddManager::CacheStats cs;
    for (auto _ : state) {
        ZddManager mgr(m.num_cols());
        benchmark::DoNotOptimize(
            ucp::cover::minimal_covers(mgr, m).id());
        cs = mgr.cache_stats();
    }
    state.counters["cache_hit_rate"] = cs.hit_rate();
    state.counters["cache_resizes"] = static_cast<double>(cs.resizes);
}
BENCHMARK(BM_MinimalCoversRandom)->Unit(benchmark::kMillisecond);

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

// ---- chain-node encoding: chain vs plain pair set -------------------------
// Each pair runs the same deep implicit-phase workload twice, with
// DdOptions::chain_nodes forced on and off (a build-free toggle — DESIGN.md
// §12). Arena node counts are exported next to wall time so the JSON shows
// the compression factor, not just the speed delta. Interval-structured
// families — contiguous runs of levels, the shape deep tables produce — are
// where Bryant's chain reduction pays off; the prime-generation pair shows
// the behaviour on literal-encoded cube sets.

ucp::zdd::DdOptions chain_dd(bool on) {
    ucp::zdd::DdOptions dd;
    dd.chain_nodes = on;
    return dd;
}

// Row dominance over 600 interval rows (length 40–200) on 2500 columns: the
// implicit_row_dominance core (union of row sets + minimal) with the manager
// held open so arena counters are readable.
void chain_row_dominance(benchmark::State& state, bool chains) {
    constexpr Var kCols = 2500;
    std::size_t live = 0, result_nodes = 0, made = 0;
    for (auto _ : state) {
        ZddManager mgr(kCols, chain_dd(chains));
        Rng rng(31);
        ucp::Timer t;
        Zdd fam = mgr.empty();
        for (int i = 0; i < 600; ++i) {
            const Var len = 40 + static_cast<Var>(rng() % 161);
            const Var start = static_cast<Var>(rng() % (kCols - len));
            std::vector<Var> row(len);
            for (Var v = 0; v < len; ++v) row[v] = start + v;
            fam = mgr.union_(fam, mgr.set_of(row));
        }
        const Zdd minimal = mgr.minimal(fam);
        state.SetIterationTime(t.seconds());
        live = mgr.live_nodes();
        result_nodes = mgr.node_count(minimal);
        made = mgr.chain_stats().nodes_made;
    }
    state.counters["live_nodes"] = static_cast<double>(live);
    state.counters["result_nodes"] = static_cast<double>(result_nodes);
    state.counters["chain_nodes_made"] = static_cast<double>(made);
}

void BM_ZddRowDominanceDeepChain(benchmark::State& state) {
    chain_row_dominance(state, true);
}
BENCHMARK(BM_ZddRowDominanceDeepChain)->UseManualTime()->Unit(
    benchmark::kMillisecond);

void BM_ZddRowDominanceDeepPlain(benchmark::State& state) {
    chain_row_dominance(state, false);
}
BENCHMARK(BM_ZddRowDominanceDeepPlain)->UseManualTime()->Unit(
    benchmark::kMillisecond);

// Minimal covers of a staircase matrix: column j covers the row interval
// [j, j+16), so every row's covering-column set is a run of ≤16 consecutive
// column variables. The enumeration recurses through chain-split views.
void chain_minimal_covers(benchmark::State& state, bool chains) {
    constexpr ucp::cov::Index kCols = 80, kWidth = 16;
    std::vector<std::vector<ucp::cov::Index>> rows;
    for (ucp::cov::Index r = 0; r < kCols + kWidth - 1; ++r) {
        std::vector<ucp::cov::Index> cols;
        for (ucp::cov::Index j = 0; j < kCols; ++j)
            if (j <= r && r < j + kWidth) cols.push_back(j);
        rows.push_back(std::move(cols));
    }
    const auto m = ucp::cov::CoverMatrix::from_rows(kCols, rows);
    std::size_t live = 0, result_nodes = 0;
    for (auto _ : state) {
        ZddManager mgr(m.num_cols(), chain_dd(chains));
        ucp::Timer t;
        const Zdd covers = ucp::cover::minimal_covers(mgr, m);
        state.SetIterationTime(t.seconds());
        live = mgr.live_nodes();
        result_nodes = mgr.node_count(covers);
    }
    state.counters["live_nodes"] = static_cast<double>(live);
    state.counters["result_nodes"] = static_cast<double>(result_nodes);
}

void BM_ZddMinimalCoversIntervalChain(benchmark::State& state) {
    chain_minimal_covers(state, true);
}
BENCHMARK(BM_ZddMinimalCoversIntervalChain)->UseManualTime()->Unit(
    benchmark::kMillisecond);

void BM_ZddMinimalCoversIntervalPlain(benchmark::State& state) {
    chain_minimal_covers(state, false);
}
BENCHMARK(BM_ZddMinimalCoversIntervalPlain)->UseManualTime()->Unit(
    benchmark::kMillisecond);

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
