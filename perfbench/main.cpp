// ucp_perfbench — the repository's end-to-end benchmark (README.md here).
//
//   ucp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <file>]
//   ucp_perfbench --self-test
//
// One caller, closed loop: each instance starts after the previous call
// returned. Prints a header, one line per metric with its unit, and as the
// last line a JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits non-zero when any answer fails its oracle.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "kernels/simd.hpp"
#include "util/trace.hpp"

#ifndef UCP_PERFBENCH_BUILD_TYPE
#define UCP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_out;
    bool self_test = false;
    bool small = false;         ///< self-test sizes
    bool inject_wrong = false;  ///< self-test: corrupt the first answer
};

// Passes per measured run at least, so each instance's best call is a
// minimum over calls spread across the run.
constexpr std::size_t kMinPasses = 3;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// The names and units BENCHMARK.json lists, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"solve_ms_p50", "ms"},     {"solve_ms_p90", "ms"},
    {"instances_per_s", "1/s"}, {"products_total", "count"},
    {"lower_bound_total", "count"}, {"setup_s", "s"},
    {"call_peak_heap_mb", "MB"},
};
// Reported in the text lines only. gap_total and failed_frac are 0 on a
// healthy run, so neither can carry a relative bound (failed_frac is also the
// JSON's failed/attempted). peak_rss_mb is the maximum over every call of a
// run, so it jumps with whichever instance is largest (23-41 MB across seeds
// on pla_wide); call_peak_heap_mb is its per-call, averaged counterpart.
constexpr MetricSpec kTextOnly[] = {
    {"gap_total", "count"}, {"failed_frac", "ratio"}, {"peak_rss_mb", "MB"}};

// Per-layer counters summed from the stats-registry deltas of the traced
// spans (layer in the comment).
constexpr const char* kLayerCounters[] = {
    "bdd.cache_misses",                                         // primes
    "zdd.cache_hits", "zdd.cache_misses", "zdd.gc_runs",        // cover + zdd
    "zdd.chain_hits", "budget.zdd_fallbacks",
    "reduce.calls", "reduce.passes", "reduce.rows_removed_dominance",  // matrix
    "reduce.cols_removed_dominance", "matrix.component_scans",
    "subgradient.calls", "subgradient.iterations",              // lagrangian
    "kernels.argmin_scans", "kernels.subset_tests",             // kernels
    "scg.starts", "portfolio.calls", "portfolio.polish_wins",   // solver
    "bnb.blocks_found", "bnb.steals", "bnb.core_copies_skipped",
    "rwls.steps", "rwls.improvements",                          // search
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

struct RunResult {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Peak resident set size of this process (Linux VmHWM), in MB.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
    for (const Metric& m : metrics)
        if (m.name == name) return m.value;
    throw std::logic_error("no metric " + name);
}

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
    for (int k = 1; k < argc; ++k) {
        const std::string flag = argv[k];
        if (flag == "--self-test") {
            a.self_test = true;
            continue;
        }
        if (k + 1 >= argc) {
            err = "missing value after " + flag;
            return false;
        }
        const std::string v = argv[++k];
        try {
            if (flag == "--workload") a.workload = v;
            else if (flag == "--seed") a.seed = std::stoull(v);
            else if (flag == "--seconds") a.seconds = std::stod(v);
            else if (flag == "--trace") a.trace = std::stoi(v) != 0;
            else if (flag == "--spans-out") a.spans_out = v;
            else {
                err = "unknown flag " + flag;
                return false;
            }
        } catch (const std::exception&) {
            err = "bad value for " + flag + ": " + v;
            return false;
        }
    }
    if (a.self_test) return true;
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
        err = "--workload must be one of pla_dense, pla_wide, scp_unicost, "
              "scp_exact";
        return false;
    }
    if (!(a.seconds > 0.0)) {
        err = "--seconds must be positive";
        return false;
    }
    return true;
}

void write_spans(const std::string& path, const Workload& w,
                 const std::vector<Span>& spans) {
    std::ofstream os(path);
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const Span& s : spans) {
        os << "{\"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
           << "\", \"instance\": \"" << w.instances[s.instance].id
           << "\", \"parent\": " << s.parent << ", \"start_ms\": " << s.start_ms
           << ", \"end_ms\": " << s.end_ms
           << ", \"derived\": " << (s.derived ? "true" : "false")
           << ", \"counters\": {";
        bool first = true;
        for (const auto& [name, v] : s.counters) {
            os << (first ? "" : ", ") << '"' << name << "\": " << v;
            first = false;
        }
        os << "}}\n";
    }
}

/// Sums of the named counters over the spans below instance roots.
Counters instance_counters(const std::vector<Span>& spans, std::size_t from,
                           std::size_t to) {
    Counters sum;
    for (std::size_t k = from; k < to; ++k) {
        if (spans[k].parent < 0) continue;  // roots and separate calls
        for (const auto& [name, v] : spans[k].counters) sum[name] += v;
    }
    return sum;
}

class Runner {
public:
    Runner(const Args& a, std::ostream& out) : a_(a), out_(out) {}

    RunResult run() {
        set_up();
        heap_pass();
        measure();
        if (a_.trace) traced_pass();
        report();
        return res_;
    }

private:
    void fail(const Instance& inst, const std::string& why) {
        ++res_.failed;
        if (res_.failed <= 5)
            out_ << "# FAIL " << inst.id << " (generator seed " << inst.gen_seed
                 << "): " << why << '\n';
    }

    /// Instance generation from the seed plus warm-up (SIMD dispatch, first
    /// touch, the first thread-pool spin-up: one call on the workload's
    /// first self-test-sized instance, so the warm-up does not depend on
    /// how hard one full-size instance happens to be). Repeated at least
    /// five times and until the repetitions took a second; the median is
    /// setup_s.
    void set_up() {
        const std::size_t min_reps = a_.small ? 1 : 5;
        double total_ms = 0.0;
        while (setup_s_.size() < min_reps ||
               (!a_.small && total_ms < 1e3 && setup_s_.size() < 50)) {
            const double t = now_ms();
            w_ = make_workload(a_.workload, a_.seed, a_.small);
            (void)ucp::kern::active_isa();
            const Workload warm = make_workload(a_.workload, a_.seed, true);
            (void)solve(warm, warm.instances.front());
            const double dt = now_ms() - t;
            total_ms += dt;
            setup_s_.push_back(dt / 1e3);
        }
        const std::size_t n = w_.instances.size();
        per_instance_ms_.assign(n, {});
        reference_.assign(n, Answer{});
        has_reference_.assign(n, false);
        first_.assign(n, Answer{});
        call_heap_mb_.assign(n, 0.0);

        out_ << "# header {\"workload\": \"" << w_.name << "\", \"entry\": \""
             << w_.entry << "\", \"seed\": " << a_.seed
             << ", \"seconds\": " << a_.seconds
             << ", \"instances\": " << n << ", \"loop\": \"closed, 1 caller\""
             << ", \"nproc\": " << std::thread::hardware_concurrency()
             << ", \"threads\": " << w_.threads <<", \"build_type\": \""
             << UCP_PERFBENCH_BUILD_TYPE << "\", \"simd_isa\": \""
             << ucp::kern::to_string(ucp::kern::active_isa())
             << "\", \"trace_compiled_in\": "
             << (ucp::trace::compiled_in() ? "true" : "false")
             << ", \"traced_pass\": " << (a_.trace ? "true" : "false") << "}\n";
    }

    /// Checks one answer: a full oracle check until the instance has a
    /// correct reference answer, then a comparison against it.
    void check(std::size_t i, const Answer& ans) {
        const Instance& inst = w_.instances[i];
        std::string err;
        try {
            err = has_reference_[i] ? repeat_check(w_, inst, ans, reference_[i])
                                    : oracle_check(w_, inst, ans);
        } catch (const std::exception& e) {
            err = std::string("oracle threw: ") + e.what();
        }
        if (!err.empty()) {
            fail(inst, err);
        } else if (!has_reference_[i]) {
            reference_[i] = ans;
            has_reference_[i] = true;
        }
    }

    /// One untraced top-level call; a throw counts as a failure. Returns
    /// false when the call threw.
    bool call(std::size_t i, Answer& ans) {
        ++res_.attempted;
        try {
            ans = solve(w_, w_.instances[i]);
            return true;
        } catch (const std::exception& e) {
            fail(w_.instances[i], std::string("call threw: ") + e.what());
            return false;
        }
    }

    /// Untimed pass with heap accounting on: every instance once, for
    /// call_peak_heap_mb and the instance's first, fully checked answer.
    void heap_pass() {
        set_heap_accounting(true);
        for (std::size_t i = 0; i < w_.instances.size(); ++i) {
            const std::int64_t heap0 = heap_live_bytes();
            reset_heap_peak();
            Answer ans;
            const bool ok = call(i, ans);
            call_heap_mb_[i] = static_cast<double>(heap_peak_bytes() - heap0) / (1 << 20);
            if (!ok) continue;
            if (a_.inject_wrong && i == 0) drop_one_element(ans);
            first_[i] = ans;
            check(i, ans);
        }
        set_heap_accounting(false);
    }

    /// The untraced, timed closed loop: whole passes over the instances
    /// until the time inside top-level calls reaches --seconds, and at least
    /// kMinPasses passes.
    void measure() {
        const std::size_t n = w_.instances.size();
        const double budget_ms = a_.seconds * 1e3;
        const std::size_t min_passes = a_.small ? 1 : kMinPasses;
        std::size_t pass = 0;
        do {
            for (std::size_t i = 0; i < n; ++i) {
                Answer ans;
                const double t0 = now_ms();
                const bool ok = call(i, ans);
                const double dt = now_ms() - t0;
                busy_ms_ += dt;
                per_instance_ms_[i].push_back(dt);
                if (ok) check(i, ans);
            }
            ++pass;
        } while (busy_ms_ < budget_ms || pass < min_passes);
        passes_ = pass;
        peak_rss_mb_ = peak_rss_mb();
    }

    /// The traced pass: every instance once more through the per-layer
    /// composition, checked against the untraced answers.
    void traced_pass() {
        const std::size_t n = w_.instances.size();
        std::vector<Span> spans;
        const double t0 = now_ms();
        std::vector<std::size_t> roots;
        std::vector<std::pair<std::size_t, std::size_t>> span_range(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t from = spans.size();
            Answer ans;
            try {
                ans = solve_traced(w_, w_.instances[i], i, t0, spans, facts_);
            } catch (const std::exception& e) {
                ++res_.attempted;
                fail(w_.instances[i], std::string("traced call threw: ") + e.what());
                continue;
            }
            span_range[i] = {from, spans.size()};
            ++res_.attempted;
            check(i, ans);
            if (ans.cost != first_[i].cost)
                fail(w_.instances[i], "traced products " + std::to_string(ans.cost) +
                                          " differ from untraced " +
                                          std::to_string(first_[i].cost));
            for (std::size_t k = from; k < spans.size(); ++k)
                if (spans[k].name == "instance") roots.push_back(k);
        }

        // Self time = duration minus the children's durations.
        std::vector<double> child_ms(spans.size(), 0.0);
        for (const Span& s : spans)
            if (s.parent >= 0)
                child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
        coverage_min_ = 1.0;
        for (const std::size_t r : roots) {
            const double wall = spans[r].end_ms - spans[r].start_ms;
            traced_wall_ms_ += wall;
            unattributed_ms_ += wall - child_ms[r];
            const double cov = ratio(child_ms[r], wall);
            coverage_min_ = std::min(coverage_min_, cov);
            if (cov < 0.9 && !a_.small)
                fail(w_.instances[spans[r].instance],
                     "layer self times cover only " + std::to_string(cov) +
                         " of the instance's wall time");
        }
        for (std::size_t k = 0; k < spans.size(); ++k) {
            const Span& s = spans[k];
            if (s.parent < 0) continue;
            layer_self_ms_[s.layer] += (s.end_ms - s.start_ms) - child_ms[k];
        }
        counters_ = instance_counters(spans, 0, spans.size());
        num_spans_ = spans.size();

        double untraced_ms = 0.0;
        for (std::size_t i = 0; i < n; ++i) untraced_ms += median(per_instance_ms_[i]);
        overhead_frac_ = ratio(traced_wall_ms_, untraced_ms) - 1.0;

        // Attribution self-check: on one thread an instance's counter
        // deltas must not depend on what ran before it.
        if (w_.threads == 1 && n >= 2) {
            std::vector<Span> again;
            LayerFacts scratch;
            (void)solve_traced(w_, w_.instances[0], 0, t0, again, scratch);
            const Counters first = instance_counters(spans, span_range[0].first,
                                                     span_range[0].second);
            const Counters last = instance_counters(again, 0, again.size());
            for (const char* name : kLayerCounters) {
                const auto f = first.find(name);
                const auto l = last.find(name);
                const double fv = f == first.end() ? 0.0 : f->second;
                const double lv = l == last.end() ? 0.0 : l->second;
                if (fv != lv)
                    fail(w_.instances[0], std::string("counter ") + name +
                                              " differs between first and last run");
            }
        }
        if (!a_.spans_out.empty()) write_spans(a_.spans_out, w_, spans);
    }

    void report() {
        const std::size_t n = w_.instances.size();
        // p50: one sample per instance, its fastest call over the passes.
        // The host's speed drifts by tens of percent over seconds, and the
        // minimum over calls spread across the run is what stays put.
        // p90: one sample per timed call, so a slowdown of some calls only
        // still shows.
        std::vector<double> best;
        std::vector<double> all;
        for (const auto& calls : per_instance_ms_) {
            if (calls.empty()) continue;
            best.push_back(*std::min_element(calls.begin(), calls.end()));
            all.insert(all.end(), calls.begin(), calls.end());
        }
        std::sort(all.begin(), all.end());
        const std::size_t m = best.size();
        const std::size_t calls = all.size();
        // The highest percentile with at least ten samples beyond it (p90
        // from 100 samples on).
        std::size_t rank =
            static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(calls)));
        if (calls < 100) rank = calls > 10 ? calls - 10 : 1;
        const double tail_q =
            100.0 * static_cast<double>(rank) / static_cast<double>(calls);

        double products = 0.0;
        double bounds = 0.0;
        double heap_sum_mb = 0.0;
        for (const double mb : call_heap_mb_) heap_sum_mb += mb;
        for (const Answer& f : first_) {
            products += static_cast<double>(f.cost);
            bounds += static_cast<double>(f.lower_bound);
        }
        const std::string nsamp = "n=" + std::to_string(m) + " instances, best of " +
                                  std::to_string(passes_) + " calls";
        std::ostringstream q;
        q << "n=" << calls << " timed calls, p" << std::setprecision(3) << tail_q << ", "
          << (calls - rank) << " beyond";
        std::ostringstream busy;
        busy << calls << " timed calls over " << std::setprecision(4) << busy_ms_ / 1e3
             << " s inside calls";
        const std::string per_set = std::to_string(n) + " instances";
        res_.end_to_end = {
            {"solve_ms_p50", median(best), "ms", nsamp},
            {"solve_ms_p90", all[rank - 1], "ms", q.str()},
            {"instances_per_s", ratio(static_cast<double>(calls), busy_ms_ / 1e3), "1/s",
             busy.str()},
            {"products_total", products, "count", per_set},
            {"lower_bound_total", bounds, "count", per_set},
            {"setup_s", median(setup_s_), "s",
             "median of " + std::to_string(setup_s_.size())},
            {"call_peak_heap_mb", heap_sum_mb / static_cast<double>(n), "MB",
             "mean over instances of the heap high-water mark of one call, "
             "untimed heap pass"},
            {"gap_total", products - bounds, "count", per_set},
            {"failed_frac",
             ratio(static_cast<double>(res_.failed), static_cast<double>(res_.attempted)),
             "ratio",
             std::to_string(res_.failed) + " of " + std::to_string(res_.attempted)},
            {"peak_rss_mb", peak_rss_mb_, "MB", "VmHWM after the measured pass"},
        };
        res_.correct = res_.failed == 0;
        print(res_.end_to_end);
        if (!a_.trace) return;

        const auto c = [&](const char* name) {
            const auto it = counters_.find(name);
            return it == counters_.end() ? 0.0 : it->second;
        };
        const auto self = [&](const char* layer) {
            const auto it = layer_self_ms_.find(layer);
            return it == layer_self_ms_.end() ? 0.0 : it->second;
        };
        const LayerFacts& f = facts_;
        std::vector<Metric>& L = res_.per_layer;
        L = {
            {"primes.ms", f.primes_ms, "ms", "CoveringTable::prime_seconds"},
            {"primes.count", f.primes, "count", ""},
            {"cover.ms", f.cover_build_ms - f.primes_ms, "ms",
             "build_covering_table span minus primes.ms"},
            {"cover.rows", f.cover_rows, "count", ""},
            {"cover.onset_minterms", f.onset_minterms, "count", ""},
            {"scg.ms", f.scg_ms, "ms", "solve_scg span"},
            {"portfolio.ms", f.portfolio_ms, "ms", "solve_portfolio span"},
            {"bnb.ms", f.bnb_ms, "ms", "solve_exact span"},
            {"bnb.nodes", f.bnb_nodes, "count", "BnbResult::nodes"},
            {"bnb.nodes_per_s", ratio(f.bnb_nodes, f.bnb_ms / 1e3), "1/s", ""},
            {"verify.ms", f.verify_ms, "ms", "verify_equivalence span"},
        };
        for (const char* name : kLayerCounters) L.push_back({name, c(name), "count", ""});
        L.push_back({"zdd.cache_hit_rate",
                     ratio(c("zdd.cache_hits"), c("zdd.cache_hits") + c("zdd.cache_misses")),
                     "ratio", "base: probes"});
        L.push_back({"portfolio.polish_win_rate",
                     ratio(c("portfolio.polish_wins"), c("portfolio.calls")), "ratio",
                     "base: portfolio.calls"});
        L.push_back({"rwls.improvements_per_1k_steps",
                     1e3 * ratio(c("rwls.improvements"), c("rwls.steps")), "count/1k",
                     "base: rwls.steps"});
        for (const char* layer : {"primes", "cover", "solver", "pla"})
            L.push_back({std::string("self_ms.") + layer, self(layer), "ms", "layer self time"});
        L.push_back({"self_ms.unattributed", unattributed_ms_, "ms",
                     "instance time outside every layer span"});
        L.push_back({"trace.wall_ms", traced_wall_ms_, "ms", "sum of instance spans"});
        L.push_back({"trace.self_coverage_min", coverage_min_, "ratio",
                     "min over instances of layer self time / wall"});
        L.push_back({"trace.overhead_frac", overhead_frac_, "ratio",
                     "traced / untraced per-instance median, minus 1"});
        L.push_back({"trace.spans", static_cast<double>(num_spans_), "count", ""});
        L.push_back({"gap_total", value_of(res_.end_to_end, "gap_total"), "count", ""});
        print(L);
    }

    void print(const std::vector<Metric>& metrics) {
        for (const Metric& m : metrics) {
            out_ << '[' << w_.name << "] " << std::left << std::setw(32) << m.name
                 << " = " << std::setprecision(6) << m.value << ' ' << m.unit;
            if (!m.note.empty()) out_ << "  (" << m.note << ')';
            out_ << '\n';
        }
    }

    const Args& a_;
    std::ostream& out_;
    RunResult res_;
    Workload w_;
    std::vector<double> setup_s_;
    std::vector<std::vector<double>> per_instance_ms_;
    std::vector<Answer> reference_;
    std::vector<bool> has_reference_;
    std::vector<Answer> first_;
    std::vector<double> call_heap_mb_;
    double busy_ms_ = 0.0;
    std::size_t passes_ = 0;
    double peak_rss_mb_ = 0.0;
    LayerFacts facts_;
    Counters counters_;
    std::map<std::string, double> layer_self_ms_;
    double traced_wall_ms_ = 0.0;
    double unattributed_ms_ = 0.0;
    double coverage_min_ = 0.0;
    double overhead_frac_ = 0.0;
    std::size_t num_spans_ = 0;
};

void print_json(const RunResult& r, bool trace, std::ostream& os) {
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const Metric& m) {
        os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << m.value
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    };
    if (trace) {
        for (const Metric& m : r.per_layer) emit(m);
    } else {
        for (const MetricSpec& spec : kEndToEnd)
            for (const Metric& m : r.end_to_end)
                if (m.name == spec.name) emit(m);
    }
    os << "}}\n";
}

/// Small sizes, every workload: each metric prints with its unit, the
/// traced pass agrees with the untraced one, and a cover with one product
/// (or column) dropped is caught and counted.
int self_test() {
    int problems = 0;
    const auto problem = [&](const std::string& what) {
        ++problems;
        std::cout << "self-test FAIL: " << what << '\n';
    };
    for (const std::string& name : workload_names()) {
        Args a;
        a.workload = name;
        a.seed = 7;
        a.seconds = 0.05;
        a.trace = true;
        a.small = true;
        std::ostringstream text;
        const RunResult ok = Runner(a, text).run();
        if (!ok.correct) problem(name + ": clean run reported failures\n" + text.str());
        const std::string s = text.str();
        const auto printed = [&](const MetricSpec& spec) {
            return s.find('[' + name + "] " + spec.name) != std::string::npos &&
                   s.find(std::string(" ") + spec.unit, s.find('[' + name + "] " + spec.name)) !=
                       std::string::npos;
        };
        for (const MetricSpec& spec : kEndToEnd)
            if (!printed(spec)) problem(name + ": metric " + spec.name + " not printed");
        for (const MetricSpec& spec : kTextOnly)
            if (!printed(spec)) problem(name + ": metric " + spec.name + " not printed");
        if (ok.per_layer.empty()) problem(name + ": no per-layer metrics");

        a.trace = false;
        a.inject_wrong = true;
        std::ostringstream sink;
        const RunResult bad = Runner(a, sink).run();
        const double frac = value_of(bad.end_to_end, "failed_frac");
        if (bad.correct || bad.failed == 0 || !(frac > 0.0))
            problem(name + ": injected wrong answer was not caught");
        std::cout << "self-test " << name << ": " << ok.attempted
                  << " answers checked, injected wrong answer "
                  << (bad.failed > 0 ? "caught" : "MISSED") << " (failed_frac "
                  << frac << ")\n";
    }
    std::cout << (problems == 0 ? "self-test passed\n" : "self-test FAILED\n");
    return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args a;
    std::string err;
    if (!parse_args(argc, argv, a, err)) {
        std::cerr << "ucp_perfbench: " << err << '\n';
        return 2;
    }
    if (a.self_test) return self_test();
    try {
        const RunResult r = Runner(a, std::cout).run();
        print_json(r, a.trace, std::cout);
        return r.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "ucp_perfbench: " << e.what() << '\n';
        return 2;
    }
}
