// Shared helpers for the paper-table benchmark binaries.
//
// Every bench prints (1) our measured table on the synthetic stand-in
// instances (DESIGN.md §2 documents the substitution) and (2) the values the
// paper reports for the original Berkeley instances, so the *shape* of the
// comparison can be eyeballed row by row. Absolute values are not expected to
// match — the instances differ and the paper's machine was an UltraSparc30.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "espresso/espresso.hpp"
#include "gen/suites.hpp"
#include "solver/two_level.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ucp::bench {

/// Peak resident set size in MB (Linux VmHWM — monotone over the process
/// lifetime, which is how the paper's M column behaves across a run too).
inline double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

/// Machine-readable benchmark output: pass argc/argv and a bench name, call
/// record() once per instance, and — when the binary was invoked with
/// `--json[=path]` — the destructor writes a JSON document
///
///   {"bench": "...", "threads": N, "records": [
///      {"instance": "...", "cost": c, "wall_ms": t, ..., "counters": {...}},
///      ...]}
///
/// to `path` (default `BENCH_<name>.json`). The "counters" object holds the
/// per-instance *delta* of the global stats registry (reduction passes,
/// subgradient iterations, ZDD cache hits, phase timers, ...), so each record
/// is self-contained and the perf trajectory can be tracked across commits.
class JsonReporter {
public:
    JsonReporter(int argc, const char* const* argv, std::string bench_name)
        : bench_(std::move(bench_name)), baseline_(stats::snapshot()) {
        const Options opts(argc, argv);
        if (opts.has("json")) {
            path_ = opts.get("json");
            if (path_.empty() || path_ == "true")
                path_ = "BENCH_" + bench_ + ".json";
        }
        threads_ = static_cast<int>(
            opts.get_int("threads", static_cast<long>(ThreadPool::default_threads())));
        starts_ = static_cast<int>(opts.get_int("starts", 1));
        min_of_ = static_cast<int>(opts.get_int("min-of", 1));
        if (min_of_ < 1) min_of_ = 1;
        // --mem-budget-mb=<n>: cap the whole bench run. Latched into the
        // environment before the first solve so every governed allocation
        // site sees it via MemoryBudget::process_default() (DESIGN.md §13).
        const long mem_mb = opts.get_int("mem-budget-mb", 0);
        if (mem_mb > 0)
            ::setenv("UCP_MEM_BUDGET", std::to_string(mem_mb).c_str(), 1);
        // --trace=<file> [--trace-level=phase|iter] [--trace-format=jsonl|
        // chrome]: arm tracing for the whole bench run; the destructor exports
        // after the instances finish (docs/OBSERVABILITY.md).
        if (opts.has("trace")) {
            trace_path_ = opts.get("trace");
            trace::Level lvl = trace::Level::kPhase;
            if (!trace::parse_level(opts.get("trace-level", "phase"), lvl)) {
                std::cerr << "[trace] unknown --trace-level, using phase\n";
                lvl = trace::Level::kPhase;
            }
            trace_chrome_ = opts.get("trace-format", "jsonl") == "chrome";
            if (!trace::compiled_in())
                std::cerr << "[trace] built with -DUCP_TRACE=OFF; trace will "
                             "be empty\n";
            trace::start(lvl);
        }
    }

    JsonReporter(const JsonReporter&) = delete;
    JsonReporter& operator=(const JsonReporter&) = delete;

    /// --threads / --starts from the command line (threads defaults to
    /// ThreadPool::default_threads(), starts to 1) so every bench binary gets
    /// the parallel-SCG knobs for free.
    [[nodiscard]] int threads() const noexcept { return threads_; }
    [[nodiscard]] int starts() const noexcept { return starts_; }
    /// --min-of N: timing repetitions per instance (default 1). Benches that
    /// support it re-run the timed section N times and report the minimum
    /// (plus the median) — the repeat count needed to measure kernel-level
    /// speedups above scheduler noise on shared CI runners.
    [[nodiscard]] int min_of() const noexcept { return min_of_; }
    [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

    /// Records one instance. `extra` appends bench-specific numeric fields;
    /// `text_extra` appends string fields (e.g. the anytime "status", which
    /// check_baselines.py asserts is "ok" on every baseline run).
    void record(const std::string& instance, double cost, double wall_ms,
                const std::vector<std::pair<std::string, double>>& extra = {},
                const std::vector<std::pair<std::string, std::string>>&
                    text_extra = {}) {
        Record r;
        r.instance = instance;
        r.cost = cost;
        r.wall_ms = wall_ms;
        r.extra = extra;
        r.text_extra = text_extra;
        const auto now = stats::snapshot();
        for (const auto& [name, value] : now) {
            const auto it = baseline_.find(name);
            const double delta = value - (it == baseline_.end() ? 0.0 : it->second);
            if (delta != 0.0) r.counters.emplace_back(name, delta);
        }
        baseline_ = now;
        records_.push_back(std::move(r));
    }

    ~JsonReporter() {
        if (!trace_path_.empty()) {
            trace::stop();
            std::ofstream tf(trace_path_);
            if (trace_chrome_)
                trace::write_chrome(tf);
            else
                trace::write_jsonl(tf);
            std::cout << "[trace] wrote " << trace_path_ << '\n';
        }
        if (path_.empty()) return;
        std::ofstream os(path_);
        os << "{\"bench\": \"" << bench_ << "\", \"threads\": " << threads_
           << ", \"starts\": " << starts_ << ", \"records\": [";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record& r = records_[i];
            if (i > 0) os << ',';
            os << "\n  {\"instance\": \"" << r.instance << "\", \"cost\": " << r.cost
               << ", \"wall_ms\": " << r.wall_ms;
            for (const auto& [k, v] : r.extra) os << ", \"" << k << "\": " << v;
            for (const auto& [k, v] : r.text_extra)
                os << ", \"" << k << "\": \"" << v << "\"";
            os << ", \"counters\": {";
            for (std::size_t c = 0; c < r.counters.size(); ++c) {
                if (c > 0) os << ", ";
                os << '"' << r.counters[c].first << "\": " << r.counters[c].second;
            }
            os << "}}";
        }
        os << "\n]}\n";
        std::cout << "[json] wrote " << records_.size() << " records to "
                  << path_ << '\n';
    }

private:
    struct Record {
        std::string instance;
        double cost = 0.0;
        double wall_ms = 0.0;
        std::vector<std::pair<std::string, double>> extra;
        std::vector<std::pair<std::string, std::string>> text_extra;
        std::vector<std::pair<std::string, double>> counters;
    };

    std::string bench_;
    std::string path_;
    std::string trace_path_;
    bool trace_chrome_ = false;
    int threads_ = 1;
    int starts_ = 1;
    int min_of_ = 1;
    std::map<std::string, double> baseline_;
    std::vector<Record> records_;
};

/// Result of a `--min-of N` repeat-timing loop (times in milliseconds).
struct RepeatTiming {
    double min_ms = 0.0;
    double median_ms = 0.0;
    int repeats = 1;
};

/// Runs `fn` max(1, n) times and reports the minimum and median wall time.
/// The minimum is the primary number (least contaminated by preemption); the
/// median shows how noisy the run was. The workload must be idempotent —
/// every repetition recomputes the same result.
template <class Fn>
inline RepeatTiming time_min_of(int n, Fn&& fn) {
    RepeatTiming out;
    out.repeats = n < 1 ? 1 : n;
    std::vector<double> ms(static_cast<std::size_t>(out.repeats));
    for (double& sample : ms) {
        Timer t;
        fn();
        sample = t.seconds() * 1e3;
    }
    std::sort(ms.begin(), ms.end());
    out.min_ms = ms.front();
    const std::size_t mid = ms.size() / 2;
    out.median_ms = ms.size() % 2 != 0 ? ms[mid] : (ms[mid - 1] + ms[mid]) / 2.0;
    return out;
}

/// Appends the `--min-of` extra fields (only when N > 1, so default runs keep
/// the exact record schema the committed baselines were written with).
inline void append_repeat_fields(
    std::vector<std::pair<std::string, double>>& extra, const RepeatTiming& rt) {
    if (rt.repeats <= 1) return;
    extra.emplace_back("wall_min_ms", rt.min_ms);
    extra.emplace_back("wall_median_ms", rt.median_ms);
    extra.emplace_back("repeats", static_cast<double>(rt.repeats));
}

/// "123*" when the solver proved optimality (paper's star convention).
inline std::string starred(cov::Cost sol, bool proved) {
    return std::to_string(sol) + (proved ? "*" : "");
}

/// "123(120)" — heuristic value with its lower bound (Tables 3–4).
inline std::string with_bound(cov::Cost sol, cov::Cost lb, bool proved) {
    if (proved) return std::to_string(sol) + "*";
    return std::to_string(sol) + "(" + std::to_string(lb) + ")";
}

/// Block-diagonal direct sum of covering matrices — genuinely decomposable
/// exact-solver instances for the decomposition-parallel benches (DESIGN.md
/// §11). Column/row indices are shifted per part; costs are preserved.
inline cov::CoverMatrix block_diagonal(
    const std::vector<const cov::CoverMatrix*>& parts) {
    std::vector<std::vector<cov::Index>> rows;
    std::vector<cov::Cost> costs;
    cov::Index col_base = 0;
    for (const auto* p : parts) {
        for (cov::Index i = 0; i < p->num_rows(); ++i) {
            std::vector<cov::Index> r;
            r.reserve(p->row(i).size());
            for (const cov::Index j : p->row(i)) r.push_back(col_base + j);
            rows.push_back(std::move(r));
        }
        for (cov::Index j = 0; j < p->num_cols(); ++j)
            costs.push_back(p->cost(j));
        col_base += p->num_cols();
    }
    return cov::CoverMatrix::from_rows(col_base, std::move(rows),
                                       std::move(costs));
}

/// Appends one bridge row = union of rows `a` and `b`. The instance is
/// connected as written, but the bridge is a superset of row `a`, so row
/// dominance deletes it at the root and the core decomposes only after the
/// reduction — the dynamic-detection case of DESIGN.md §11.
inline cov::CoverMatrix with_bridge_row(const cov::CoverMatrix& m,
                                        cov::Index a, cov::Index b) {
    std::vector<std::vector<cov::Index>> rows;
    rows.reserve(m.num_rows() + 1);
    for (cov::Index i = 0; i < m.num_rows(); ++i)
        rows.emplace_back(m.row(i).begin(), m.row(i).end());
    std::vector<cov::Index> bridge(m.row(a).begin(), m.row(a).end());
    bridge.insert(bridge.end(), m.row(b).begin(), m.row(b).end());
    rows.push_back(std::move(bridge));
    std::vector<cov::Cost> costs;
    for (cov::Index j = 0; j < m.num_cols(); ++j) costs.push_back(m.cost(j));
    return cov::CoverMatrix::from_rows(m.num_cols(), std::move(rows),
                                       std::move(costs));
}

/// One decomposable-instance row for the Table 3/4 benches: times the exact
/// solver with decomposition off (the sequential whole-matrix search) and
/// with the decomposition-parallel search (`--threads` workers), `--min-of`
/// repetitions each, and records the solution fields the baseline gate pins
/// (optimal cost and block count — both deterministic).
inline void record_decomposed_exact(JsonReporter& json, TextTable& table,
                                    const std::string& name,
                                    const cov::CoverMatrix& m) {
    solver::BnbResult seq_r, dec_r;
    solver::BnbOptions seq;
    seq.decompose = false;
    const RepeatTiming ts =
        time_min_of(json.min_of(), [&] { seq_r = solver::solve_exact(m, seq); });
    solver::BnbOptions dec;
    dec.num_threads = json.threads();
    const RepeatTiming td =
        time_min_of(json.min_of(), [&] { dec_r = solver::solve_exact(m, dec); });
    if (seq_r.optimal && dec_r.optimal && seq_r.cost != dec_r.cost)
        std::cerr << "BUG: decomposed exact cost mismatch on " << name << ": "
                  << seq_r.cost << " vs " << dec_r.cost << '\n';

    std::vector<std::pair<std::string, double>> extra{
        {"blocks", static_cast<double>(dec_r.blocks)},
        {"exact_optimal", seq_r.optimal && dec_r.optimal ? 1.0 : 0.0},
        {"seq_min_ms", ts.min_ms},
        {"speedup", ts.min_ms / std::max(td.min_ms, 1e-9)}};
    append_repeat_fields(extra, td);
    json.record(name, static_cast<double>(dec_r.cost), td.min_ms, extra);
    table.add_row({name, std::to_string(dec_r.blocks),
                   starred(dec_r.cost, dec_r.optimal), TextTable::num(ts.min_ms, 2),
                   TextTable::num(td.min_ms, 2),
                   TextTable::num(ts.min_ms / std::max(td.min_ms, 1e-9), 2) +
                       "x"});
}

struct PipelineRow {
    std::string name;
    solver::TwoLevelResult scg;
    std::size_t espresso_sol = 0;
    double espresso_seconds = 0.0;
    std::size_t strong_sol = 0;
    double strong_seconds = 0.0;
    double rss_mb = 0.0;
    bool espresso_verified = true;
};

/// Runs ZDD_SCG + Espresso (normal and strong) on one instance. `opt` lets
/// benches thread through solver knobs (e.g. scg.num_starts/num_threads).
inline PipelineRow run_pipeline(const gen::SuiteEntry& entry,
                                bool run_espresso = true,
                                const solver::TwoLevelOptions& opt = {}) {
    PipelineRow row;
    row.name = entry.name;
    row.scg = solver::minimize_two_level(entry.pla, opt);
    if (run_espresso) {
        {
            Timer t;
            const auto r = esp::espresso(entry.pla);
            row.espresso_seconds = t.seconds();
            row.espresso_sol = r.cover.size();
            row.espresso_verified =
                solver::verify_equivalence(entry.pla, r.cover);
        }
        {
            Timer t;
            esp::EspressoOptions opt;
            opt.strong = true;
            const auto r = esp::espresso(entry.pla, opt);
            row.strong_seconds = t.seconds();
            row.strong_sol = r.cover.size();
        }
    }
    row.rss_mb = peak_rss_mb();
    return row;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
    std::cout << "=== " << title << " ===\n"
              << paper_ref << "\n"
              << "(instances are synthetic stand-ins named after the paper's "
                 "rows; see DESIGN.md §2)\n\n";
}

}  // namespace ucp::bench
