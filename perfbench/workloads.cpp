// The four named workloads: generation from the run seed, the untraced
// top-level call, the traced composition from per-layer public calls, and
// the oracles that check every answer.
#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "cover/table_builder.hpp"
#include "gen/pla_gen.hpp"
#include "gen/scp_gen.hpp"
#include "primes/explicit_primes.hpp"
#include "solver/bnb.hpp"
#include "solver/greedy.hpp"
#include "solver/portfolio.hpp"
#include "solver/scg.hpp"
#include "solver/two_level.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using ucp::Status;

/// Generator seed of instance `index`: an independent SplitMix64 value per
/// (run seed, workload, index), so instances never share a stream.
std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t tag,
                            std::size_t index) {
    ucp::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL ^ (tag << 48) ^
                       static_cast<std::uint64_t>(index));
    sm.next();
    return sm.next();
}

std::string instance_id(const std::string& workload, std::size_t index) {
    return workload + "/" + std::to_string(index);
}

// ---- instance families --------------------------------------------------
//
// Sizes follow a fixed schedule over the instance index; the seed only draws
// each instance's content. A seed therefore changes the inputs but not the
// size mix, which keeps run-to-run figures comparable across seeds.

ucp::pla::Pla dense_pla(std::size_t i, std::uint64_t gen_seed, bool small) {
    ucp::gen::RandomPlaOptions o;
    o.num_outputs = 1;
    o.literal_prob = 0.55;
    o.num_inputs = small ? 7 : 10;
    o.num_cubes = o.num_inputs * 4 + static_cast<std::uint32_t>(4 * (i % 3)) - 4;
    o.dc_fraction = i % 4 == 3 ? 0.3 : 0.0;  // every fourth: the DC regime
    o.seed = gen_seed;
    return ucp::gen::random_pla(o);
}

ucp::pla::Pla wide_pla(std::size_t i, std::uint64_t gen_seed, bool small) {
    ucp::gen::RandomPlaOptions o;
    o.num_outputs = 1;
    o.literal_prob = 0.5;
    o.num_inputs = small ? 12 : 24;
    o.num_cubes = static_cast<std::uint32_t>((small ? 14 : 22) + 2 * (i % 3));
    o.dc_fraction = 0.0;
    o.seed = gen_seed;
    return ucp::gen::random_pla(o);
}

ucp::cov::CoverMatrix unicost(Index rows, Index cols, Index k,
                              std::uint64_t gen_seed) {
    ucp::gen::UnicostScpOptions o;
    o.rows = rows;
    o.cols = cols;
    o.cols_per_row = k;
    o.seed = gen_seed;
    return ucp::gen::unicost_scp(o);
}

// ---- top-level call options ---------------------------------------------

/// bench_portfolio's options: 2 SCG runs, then 4 RWLS tasks × 30,000 steps.
ucp::solver::PortfolioOptions portfolio_options(int threads) {
    ucp::solver::PortfolioOptions o;
    o.scg.num_iter = 2;
    o.scg.num_threads = 1;
    o.rwls_tasks = 4;
    o.rwls.max_steps = 30'000;
    o.num_threads = threads;
    return o;
}

ucp::solver::BnbOptions exact_options(int threads) {
    ucp::solver::BnbOptions o;
    o.num_threads = threads;
    return o;
}

// ---- traced-pass helpers ------------------------------------------------

Counters delta(const Counters& after, const Counters& before) {
    Counters d;
    for (const auto& [name, value] : after) {
        const auto it = before.find(name);
        const double v = value - (it == before.end() ? 0.0 : it->second);
        if (v != 0.0) d.emplace(name, v);
    }
    return d;
}

/// Runs fn() inside a new span: the registry is snapshotted immediately
/// before and after, so the span's counters are exactly fn's work. Returns
/// the span's index.
template <class Fn>
int record_span(std::vector<Span>& spans, std::string name, std::string layer,
                std::size_t instance, int parent, double t0, Fn&& fn) {
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.instance = instance;
    s.parent = parent;
    const Counters before = ucp::stats::snapshot();
    s.start_ms = now_ms() - t0;
    fn();
    s.end_ms = now_ms() - t0;
    s.counters = delta(ucp::stats::snapshot(), before);
    spans.push_back(std::move(s));
    return static_cast<int>(spans.size()) - 1;
}

int open_root(std::vector<Span>& spans, std::size_t instance, double t0) {
    Span root;
    root.name = "instance";
    root.instance = instance;
    root.start_ms = now_ms() - t0;
    spans.push_back(std::move(root));
    return static_cast<int>(spans.size()) - 1;
}

Answer pla_answer(ucp::pla::Cover cover, Cost lower_bound, bool proved, Status status,
                  std::size_t num_primes, bool verified) {
    Answer a;
    a.cost = static_cast<Cost>(cover.size());
    a.lower_bound = lower_bound;
    a.proved = proved;
    a.status_ok = status == Status::kOk;
    a.num_primes = num_primes;
    a.verified = verified;
    a.cover = std::move(cover);
    return a;
}

}  // namespace

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"pla_dense", "pla_wide",
                                                   "scp_unicost", "scp_exact"};
    return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool small) {
    Workload w;
    w.name = name;
    // The SCP workloads use the thread pool: up to 4 workers, as many as the
    // host has.
    const int pool = static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    std::size_t n = 0;
    std::uint64_t tag = 0;
    if (name == "pla_dense") {
        w.kind = Kind::kPla;
        w.entry = "solver::minimize_two_level";
        w.check_tabular_primes = true;
        n = small ? 4 : 300;
        tag = 1;
    } else if (name == "pla_wide") {
        w.kind = Kind::kPla;
        w.entry = "solver::minimize_two_level";
        n = small ? 3 : 450;
        tag = 2;
    } else if (name == "scp_unicost") {
        w.kind = Kind::kScp;
        w.entry = "solver::solve_portfolio";
        w.threads = pool;
        n = small ? 3 : 15;
        tag = 3;
    } else if (name == "scp_exact") {
        w.kind = Kind::kScp;
        w.entry = "solver::solve_exact";
        w.threads = pool;
        w.require_optimal = true;
        n = small ? 3 : 600;
        tag = 4;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.instances.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Instance inst;
        inst.id = instance_id(name, i);
        inst.gen_seed = instance_seed(seed, tag, i);
        if (tag == 1) inst.pla = dense_pla(i, inst.gen_seed, small);
        if (tag == 2) inst.pla = wide_pla(i, inst.gen_seed, small);
        if (tag == 3)
            inst.matrix = small ? unicost(60, 30, 4, inst.gen_seed)
                                : unicost(400, 120, 4, inst.gen_seed);
        if (tag == 4)
            inst.matrix = small ? unicost(40, 20, 3, inst.gen_seed)
                                : unicost(100, 45, 3, inst.gen_seed);
        w.instances.push_back(std::move(inst));
    }
    return w;
}

Answer solve(const Workload& w, const Instance& inst) {
    if (w.kind == Kind::kPla) {
        // The library's default pipeline: implicit table, SCG, verification.
        const ucp::solver::TwoLevelResult r =
            ucp::solver::minimize_two_level(inst.pla);
        return pla_answer(r.cover, r.lower_bound, r.proved_optimal,
                          r.status, r.num_primes, r.verified);
    }
    Answer a;
    if (w.name == "scp_unicost") {
        const ucp::solver::PortfolioResult r =
            ucp::solver::solve_portfolio(inst.matrix, portfolio_options(w.threads));
        a.cost = r.cost;
        a.lower_bound = r.lower_bound;
        a.proved = r.proved_optimal;
        a.status_ok = r.status == Status::kOk;
        a.solution = r.solution;
    } else {
        const ucp::solver::BnbResult r =
            ucp::solver::solve_exact(inst.matrix, exact_options(w.threads));
        a.cost = r.cost;
        a.lower_bound = r.lower_bound;
        a.proved = r.optimal;
        a.status_ok = r.status == Status::kOk;
        a.solution = r.solution;
    }
    return a;
}

Answer solve_traced(const Workload& w, const Instance& inst, std::size_t idx,
                    double t0, std::vector<Span>& spans, LayerFacts& facts) {
    Answer a;
    if (w.kind == Kind::kPla) {
        // minimize_two_level's pipeline, one public call per layer, under one
        // unlimited governor exactly as that function builds it.
        const int root = open_root(spans, idx, t0);
        ucp::Budget gov;
        ucp::cover::TableBuildOptions topt;
        topt.dd.governor = &gov;
        ucp::cover::CoveringTable table;
        Status status = Status::kOk;
        const int build = record_span(
            spans, "cover.build_covering_table", "cover", idx, root, t0, [&] {
                try {
                    table = ucp::cover::build_covering_table(inst.pla, topt);
                } catch (const ucp::ResourceError& e) {
                    status = e.status();
                }
            });
        // The prime generation inside the build, as the library timed it.
        Span primes;
        primes.name = "primes.generate";
        primes.layer = "primes";
        primes.instance = idx;
        primes.parent = build;
        primes.start_ms = spans[build].start_ms;
        primes.end_ms = primes.start_ms + table.prime_seconds * 1e3;
        primes.derived = true;
        spans.push_back(std::move(primes));

        ucp::solver::ScgResult r;
        if (status == Status::kOk) {
            ucp::solver::ScgOptions sopt;
            sopt.governor = &gov;
            const int scg = record_span(
                spans, "solver.solve_scg", "solver", idx, root, t0,
                [&] { r = ucp::solver::solve_scg(table.matrix, sopt); });
            facts.scg_ms += spans[scg].end_ms - spans[scg].start_ms;
            status = r.status;
        }
        ucp::pla::Cover cover(inst.pla.space());
        (void)record_span(
            spans, "cover.solution_to_cover", "cover", idx, root, t0,
            [&] { cover = ucp::cover::solution_to_cover(table, r.solution); });
        bool verified = false;
        const int verify = record_span(
            spans, "pla.verify_equivalence", "pla", idx, root, t0, [&] {
                verified = ucp::solver::verify_equivalence(inst.pla, cover);
            });
        spans[root].end_ms = now_ms() - t0;

        facts.cover_build_ms += spans[build].end_ms - spans[build].start_ms;
        facts.primes_ms += table.prime_seconds * 1e3;
        facts.primes += static_cast<double>(table.primes.size());
        facts.cover_rows += static_cast<double>(table.matrix.num_rows());
        facts.onset_minterms += table.onset_minterms;
        facts.verify_ms += spans[verify].end_ms - spans[verify].start_ms;
        return pla_answer(std::move(cover),
                          r.lower_bound / table.weight_scale, r.proved_optimal,
                          status, table.primes.size(), verified);
    }

    if (w.name == "scp_unicost") {
        const ucp::solver::PortfolioOptions popt = portfolio_options(w.threads);
        // Portfolio phase 1 is exactly this call; made separately (outside
        // the instance) so the SCG share of the portfolio can be read off.
        const int scg = record_span(
            spans, "solver.solve_scg", "solver", idx, -1, t0,
            [&] { (void)ucp::solver::solve_scg(inst.matrix, popt.scg); });
        facts.scg_ms += spans[scg].end_ms - spans[scg].start_ms;

        const int root = open_root(spans, idx, t0);
        ucp::solver::PortfolioResult r;
        const int port = record_span(
            spans, "solver.solve_portfolio", "solver", idx, root, t0,
            [&] { r = ucp::solver::solve_portfolio(inst.matrix, popt); });
        spans[root].end_ms = now_ms() - t0;
        facts.portfolio_ms += spans[port].end_ms - spans[port].start_ms;
        a.cost = r.cost;
        a.lower_bound = r.lower_bound;
        a.proved = r.proved_optimal;
        a.status_ok = r.status == Status::kOk;
        a.solution = r.solution;
        return a;
    }

    const int root = open_root(spans, idx, t0);
    ucp::solver::BnbResult r;
    const int bnb = record_span(spans, "solver.solve_exact", "solver", idx, root,
                                t0, [&] {
                                    r = ucp::solver::solve_exact(
                                        inst.matrix, exact_options(w.threads));
                                });
    spans[root].end_ms = now_ms() - t0;
    facts.bnb_ms += spans[bnb].end_ms - spans[bnb].start_ms;
    facts.bnb_nodes += static_cast<double>(r.nodes);
    a.cost = r.cost;
    a.lower_bound = r.lower_bound;
    a.proved = r.optimal;
    a.status_ok = r.status == Status::kOk;
    a.solution = r.solution;
    return a;
}

std::string oracle_check(const Workload& w, const Instance& inst,
                         const Answer& a) {
    if (!a.status_ok) return "status is not ok";
    if (a.lower_bound > a.cost) return "lower bound exceeds cost";
    if (w.kind == Kind::kPla) {
        if (static_cast<std::size_t>(a.cost) != a.cover.size())
            return "reported cost differs from the cover's product count";
        if (!a.verified) return "the call reported a failed equivalence check";
        if (!ucp::solver::verify_equivalence(inst.pla, a.cover))
            return "cover is not equivalent to the PLA (URP check)";
        if (w.check_tabular_primes) {
            ucp::pla::Cover care = inst.pla.on;
            care.append(inst.pla.dc);
            const std::size_t qm =
                ucp::primes::primes_by_tabular(care.restricted_to_output(0))
                    .size();
            if (qm != a.num_primes)
                return "prime count " + std::to_string(a.num_primes) +
                       " differs from Quine-McCluskey's " + std::to_string(qm);
        }
        return "";
    }
    const ucp::cov::CoverMatrix& m = inst.matrix;
    if (!m.is_feasible(a.solution)) return "solution is not a cover";
    if (m.solution_cost(a.solution) != a.cost)
        return "reported cost differs from the solution's cost";
    if (w.require_optimal) {
        if (!a.proved) return "exact solve did not prove optimality";
        const Cost greedy = ucp::solver::chvatal_greedy(m).cost;
        if (a.cost > greedy)
            return "optimal cost " + std::to_string(a.cost) +
                   " exceeds the greedy cover's " + std::to_string(greedy);
    }
    return "";
}

std::string repeat_check(const Workload& w, const Instance& inst,
                         const Answer& a, const Answer& reference) {
    if (w.kind == Kind::kPla && a.status_ok && a.verified &&
        a.cover.to_string() == reference.cover.to_string())
        return "";
    std::string err = oracle_check(w, inst, a);
    if (err.empty() && a.cost != reference.cost)
        err = "cost " + std::to_string(a.cost) + " differs from the first answer's " +
              std::to_string(reference.cost);
    return err;
}

void drop_one_element(Answer& a) {
    if (!a.cover.empty()) {
        a.cover.remove_at(a.cover.size() - 1);
        a.cost = static_cast<Cost>(a.cover.size());
    }
    if (!a.solution.empty()) {
        a.solution.pop_back();
        a.cost -= 1;
    }
}

}  // namespace perfbench
