// Domain example: a full two-level minimisation flow for PLA files —
// reads a Berkeley-format PLA (from a file, or a named built-in benchmark
// instance), minimises it with the chosen solver, verifies the result and
// writes the minimised PLA.
//
//   $ ./minimize_pla --instance=bench1 [--solver=scg|exact|greedy]
//   $ ./minimize_pla my_function.pla --out=min.pla --compare-espresso
//   $ ./minimize_pla --instance=ex1010 --deadline-ms=500 --json
//   $ ./minimize_pla --batch=bench1,ex5,t1 --threads=4 --json
//
// The run is governed: --deadline-ms / --zdd-node-budget / --mem-budget-mb
// set the resource budget, and SIGINT (Ctrl-C) requests cooperative
// cancellation — in all cases the best-so-far feasible cover is reported
// with its lower bound and a non-"ok" status instead of the process dying
// mid-solve.
//
// Exit codes: 0 = solved and verified (every instance, in --batch mode);
// 1 = a result did not verify;
// 2 = usage, unreadable input, or unwritable output (with {"status": ...}
// on stdout in --json mode so automation never has to parse stderr).
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "espresso/espresso.hpp"
#include "gen/suites.hpp"
#include "pla/pla_io.hpp"
#include "solver/two_level.hpp"
#include "util/mem_budget.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

ucp::CancelToken g_cancel;

extern "C" void on_sigint(int) { g_cancel.cancel(); }

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') { out += "\\n"; continue; }
        out += c;
    }
    return out;
}

/// Reports a fatal I/O or input error on both channels: the human-readable
/// diagnostic on stderr, and — in --json mode — a status document on stdout
/// so automation never has to parse stderr. Always exit code 2.
int fail(ucp::Status st, const std::string& message, bool json) {
    if (json)
        std::cout << "{\"status\": \"" << ucp::to_string(st)
                  << "\", \"error\": \"" << json_escape(message) << "\"}\n";
    std::cerr << "error: " << message << '\n';
    return 2;
}

void print_json(std::ostream& os, const ucp::solver::TwoLevelResult& r,
                const ucp::MemoryBudget* mem, const std::string& instance = "") {
    os << "{";
    if (!instance.empty())
        os << "\"instance\": \"" << json_escape(instance) << "\", ";
    os << "\"status\": \"" << ucp::to_string(r.status) << "\""
       << ", \"products\": " << r.cost << ", \"literals\": " << r.literals
       << ", \"lower_bound\": " << r.lower_bound
       << ", \"proved_optimal\": " << (r.proved_optimal ? "true" : "false")
       << ", \"verified\": " << (r.verified ? "true" : "false")
       << ", \"num_primes\": " << r.num_primes
       << ", \"num_rows\": " << r.num_rows
       << ", \"prime_method\": \"" << ucp::cover::to_string(r.prime_method)
       << "\", \"row_method\": \"" << ucp::cover::to_string(r.row_method)
       << "\""
       << ", \"total_seconds\": " << r.total_seconds;
    if (mem != nullptr)
        os << ", \"mem_high_water_bytes\": " << mem->high_water()
           << ", \"mem_denials\": " << mem->denials();
    os << "}";
}

void print_header(std::ostream& os, const ucp::pla::Pla& pla) {
    const auto& s = pla.space();
    os << "Function: " << pla.name << " — " << s.num_inputs << " inputs, "
       << s.num_outputs << " outputs, " << pla.on.size() << " on-cubes, "
       << pla.dc.size() << " dc-cubes\n";
}

void print_report(std::ostream& os, const ucp::solver::TwoLevelResult& r,
                  const std::string& solver) {
    os << "\nZDD_SCG pipeline (" << solver << "):\n"
       << "  primes               : " << r.num_primes << '\n'
       << "  covering rows        : " << r.num_rows
       << " (signature classes of " << r.onset_minterms
       << " on-set minterms)\n"
       << "  products             : " << r.cost
       << (r.proved_optimal ? "  (proved optimal, LB = " : "  (LB = ")
       << r.lower_bound << ")\n"
       << "  literals             : " << r.literals << '\n'
       << "  cyclic core time     : " << r.cyclic_core_seconds << " s\n"
       << "  total time           : " << r.total_seconds << " s\n"
       << "  status               : " << ucp::to_string(r.status) << '\n'
       << "  equivalence verified : " << (r.verified ? "yes" : "NO — BUG")
       << '\n';
    if (r.status != ucp::Status::kOk)
        os << "  (budget trip: best-so-far anytime result)\n";
}

/// The pipeline options every run shares, from the solver, budget and DD
/// engine flags. Prints a diagnostic and returns false on an unknown value.
bool two_level_options(const ucp::Options& opts,
                       ucp::solver::TwoLevelOptions& tl) {
    // ZDD/BDD engine knobs (defaults documented in README).
    tl.table.dd.cache_entries = static_cast<std::size_t>(opts.get_int(
        "zdd-cache-entries", static_cast<long>(tl.table.dd.cache_entries)));
    tl.table.dd.gc_threshold = static_cast<std::size_t>(opts.get_int(
        "zdd-gc-threshold", static_cast<long>(tl.table.dd.gc_threshold)));
    const std::string chain =
        opts.get("zdd-chain", tl.table.dd.chain_nodes ? "on" : "off");
    if (chain != "on" && chain != "off") {
        std::cerr << "unknown --zdd-chain (want on|off)\n";
        return false;
    }
    tl.table.dd.chain_nodes = chain == "on";
    // Resource governor: deadline, DD node budget, SIGINT cancellation.
    tl.budget.deadline_seconds =
        static_cast<double>(opts.get_int("deadline-ms", 0)) / 1000.0;
    tl.budget.zdd_node_budget =
        static_cast<std::size_t>(opts.get_int("zdd-node-budget", 0));
    tl.cancel = &g_cancel;
    // Exact-solver workers: decomposition-parallel search (DESIGN.md §11).
    tl.bnb.num_threads =
        static_cast<int>(opts.get_int("bnb-threads", tl.bnb.num_threads));
    const std::string solver = opts.get("solver", "scg");
    if (solver == "exact")
        tl.cover_solver = ucp::solver::CoverSolver::kExact;
    else if (solver == "greedy")
        tl.cover_solver = ucp::solver::CoverSolver::kGreedy;
    else if (solver != "scg") {
        std::cerr << "unknown solver: " << solver << '\n';
        return false;
    }
    return true;
}

/// --batch=name1,name2,... [files...]: one parallel_map of the pipeline over
/// the instances (--threads=N; 1 = serial, same answers either way), each run
/// exactly as a single --instance run with the same flags. When a per-instance
/// cap (--mem-budget-item-mb) or a process accountant exists, every instance
/// charges its own accountant under the process one, so a starved instance
/// degrades alone. Exits 0 only if every instance verified.
int run_batch(const ucp::Options& opts, const ucp::solver::TwoLevelOptions& tl,
              bool json) {
    std::vector<std::string> names;
    std::vector<ucp::pla::Pla> plas;
    const std::string list = opts.get("batch");
    if (!list.empty() && list != "true") {
        std::size_t pos = 0;
        while (pos <= list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::size_t end =
                comma == std::string::npos ? list.size() : comma;
            const std::string name = list.substr(pos, end - pos);
            if (!name.empty()) {
                plas.push_back(ucp::gen::instance_by_name(name));
                names.push_back(name);
            }
            if (comma == std::string::npos) break;
            pos = comma + 1;
        }
    }
    for (const auto& f : opts.positional()) {
        ucp::pla::Pla pla;
        ucp::pla::PlaDiagnostic diag;
        if (ucp::pla::parse_pla_file(f, pla, diag) != ucp::Status::kOk)
            return fail(diag.status, diag.to_string(f), json);
        plas.push_back(std::move(pla));
        names.push_back(f);
    }
    if (plas.empty()) {
        std::cerr << "--batch needs instance names (--batch=a,b,...) and/or "
                     "PLA files\n";
        return 2;
    }

    const std::size_t item_cap =
        static_cast<std::size_t>(
            std::max(0L, opts.get_int("mem-budget-item-mb", 0)))
        << 20;
    ucp::MemoryBudget* proc = ucp::MemoryBudget::process_default();
    std::vector<std::unique_ptr<ucp::MemoryBudget>> mems(plas.size());
    const auto results = ucp::parallel_map(
        plas.size(), static_cast<int>(opts.get_int("threads", 1)),
        [&](std::size_t i) {
            ucp::solver::TwoLevelOptions item = tl;
            if (item_cap != 0 || proc != nullptr) {
                mems[i] = std::make_unique<ucp::MemoryBudget>(item_cap, proc);
                item.budget.memory = mems[i].get();
            }
            return ucp::solver::minimize_two_level(plas[i], item);
        });

    bool all_verified = true;
    if (json) std::cout << "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (json) {
            std::cout << (i ? ",\n " : "\n ");
            print_json(std::cout, results[i], mems[i].get(), names[i]);
        } else {
            if (i) std::cout << '\n';
            print_header(std::cout, plas[i]);
            print_report(std::cout, results[i], opts.get("solver", "scg"));
        }
        all_verified = all_verified && results[i].verified;
    }
    if (json) std::cout << "\n]\n";
    return all_verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const ucp::Options opts(argc, argv);
    try {
        // Memory governor: latch the cap into the environment before the
        // first solve so MemoryBudget::process_default() — consulted by every
        // DD manager and solver in this process — picks it up.
        const long mem_mb = opts.get_int("mem-budget-mb", 0);
        if (mem_mb > 0)
            ::setenv("UCP_MEM_BUDGET", std::to_string(mem_mb).c_str(), 1);
        const bool json = opts.get_bool("json", false);
        ucp::solver::TwoLevelOptions tl;
        if (!two_level_options(opts, tl)) return 2;
        std::signal(SIGINT, on_sigint);
        if (opts.has("batch")) return run_batch(opts, tl, json);
        ucp::pla::Pla pla;
        if (opts.has("instance")) {
            pla = ucp::gen::instance_by_name(opts.get("instance"));
        } else if (!opts.positional().empty()) {
            ucp::pla::PlaDiagnostic diag;
            if (ucp::pla::parse_pla_file(opts.positional()[0], pla, diag) !=
                ucp::Status::kOk)
                return fail(diag.status, diag.to_string(opts.positional()[0]),
                            json);
        } else {
            std::cerr << "usage: minimize_pla <file.pla> | --instance=<name>\n"
                      << "       minimize_pla --batch=<a,b,...> [files...] "
                         "[--threads=<n>] [--mem-budget-item-mb=<n>]\n"
                      << "       [--solver=scg|exact|greedy] [--out=<file>]\n"
                      << "       [--compare-espresso] [--json]\n"
                      << "       [--deadline-ms=<n>] [--zdd-node-budget=<n>]\n"
                      << "       [--mem-budget-mb=<n>]\n"
                      << "       [--bnb-threads=<n>]\n"
                      << "       [--zdd-cache-entries=<n>] "
                         "[--zdd-gc-threshold=<n>] [--zdd-chain=on|off]\n"
                      << "       [--trace=<file>] "
                         "[--trace-level=phase|iter] "
                         "[--trace-format=jsonl|chrome]\n"
                      << "named instances: bench1, ex5, exam, max1024, prom2, "
                         "t1, test4, ex1010, test2, ...\n";
            return 2;
        }

        if (!json) print_header(std::cout, pla);
        // Tracing (docs/OBSERVABILITY.md): arm before the solve, export after.
        const std::string trace_path = opts.get("trace", "");
        const std::string trace_format = opts.get("trace-format", "jsonl");
        ucp::trace::Level trace_level = ucp::trace::Level::kPhase;
        if (!ucp::trace::parse_level(opts.get("trace-level", "phase"),
                                     trace_level)) {
            std::cerr << "unknown --trace-level (want phase|iter)\n";
            return 2;
        }
        if (trace_format != "jsonl" && trace_format != "chrome") {
            std::cerr << "unknown --trace-format (want jsonl|chrome)\n";
            return 2;
        }
        if (!trace_path.empty()) {
            if (!ucp::trace::compiled_in()) {
                std::cerr << "warning: built with -DUCP_TRACE=OFF; --trace "
                             "will produce an empty trace\n";
            }
            ucp::trace::start(trace_level);
        }

        const auto r = ucp::solver::minimize_two_level(pla, tl);
        if (!trace_path.empty()) {
            ucp::trace::stop();
            std::ofstream tf(trace_path);
            if (!tf) {
                std::cerr << "error: cannot write trace file " << trace_path
                          << '\n';
                return 1;
            }
            if (trace_format == "chrome")
                ucp::trace::write_chrome(tf);
            else
                ucp::trace::write_jsonl(tf);
            if (!json)
                std::cout << "trace written to " << trace_path << " ("
                          << trace_format << ")\n";
        }
        // Write the minimised PLA before reporting: an unwritable --out path
        // must yield the error document and exit 2, not a success report
        // followed by a silently missing file.
        if (opts.has("out")) {
            ucp::pla::Pla out;
            out.name = pla.name + ".min";
            out.on = r.cover;
            out.dc = ucp::pla::Cover(pla.space());
            out.off = ucp::pla::Cover(pla.space());
            std::ofstream f(opts.get("out"));
            if (f) {
                ucp::pla::write_pla(f, out);
                f.flush();
            }
            if (!f)
                return fail(ucp::Status::kIoError,
                            "cannot write output file " + opts.get("out"),
                            json);
        }
        if (json) {
            print_json(std::cout, r, ucp::MemoryBudget::process_default());
            std::cout << '\n';
        } else {
            print_report(std::cout, r, opts.get("solver", "scg"));
        }

        if (opts.get_bool("compare-espresso", false)) {
            const auto en = ucp::esp::espresso(pla);
            ucp::esp::EspressoOptions strong;
            strong.strong = true;
            const auto es = ucp::esp::espresso(pla, strong);
            std::cout << "\nEspresso baseline: " << en.cover.size()
                      << " products (normal), " << es.cover.size()
                      << " products (strong)\n";
        }

        if (opts.has("out") && !json)
            std::cout << "\nminimised PLA written to " << opts.get("out")
                      << '\n';
        // A budget trip still exits 0 when the anytime cover verifies — the
        // caller distinguishes complete/truncated runs via the status field.
        return r.verified ? 0 : 1;
    } catch (const std::exception& e) {
        return fail(ucp::status_of(e), e.what(), opts.get_bool("json", false));
    }
}
