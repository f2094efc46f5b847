// Shared types of the end-to-end benchmark (README.md in this directory).
//
// A workload is a seeded list of instances plus the one top-level library
// call that answers an instance. The benchmark times that call from outside
// (untraced pass), checks every answer against oracles that do not depend on
// the solver under test, and in a separate traced pass composes the same
// answer from the public calls of each layer, with a span around each call
// and the stats-registry deltas of exactly that call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "matrix/sparse_matrix.hpp"
#include "pla/pla_io.hpp"

namespace perfbench {

using ucp::cov::Cost;
using ucp::cov::Index;

/// Counter values keyed by stats-registry name (a snapshot or a delta).
using Counters = std::map<std::string, double>;

struct Instance {
    std::string id;          ///< "<workload>/<index>"
    std::uint64_t gen_seed;  ///< generator seed derived from the run seed
    ucp::pla::Pla pla;       ///< PLA workloads
    ucp::cov::CoverMatrix matrix;  ///< SCP workloads
};

/// What a top-level call returned, in the form the oracles check.
struct Answer {
    Cost cost = 0;          ///< products (PLA) or columns (SCP)
    Cost lower_bound = 0;   ///< the bound the solver reported
    bool status_ok = true;  ///< Status::kOk
    bool proved = false;    ///< solver claims optimality
    bool verified = false;  ///< PLA: the call's own equivalence flag
    std::size_t num_primes = 0;     ///< PLA: columns of the covering table
    ucp::pla::Cover cover;          ///< PLA workloads
    std::vector<Index> solution;    ///< SCP workloads
};

/// One timed interval of the traced pass.
struct Span {
    std::string name;     ///< "<layer>.<call>", or "instance" for the root
    std::string layer;    ///< src/ module the call belongs to ("" for root)
    std::size_t instance = 0;
    int parent = -1;      ///< index into the span list, -1 for a root
    double start_ms = 0.0;  ///< from the start of the traced pass
    double end_ms = 0.0;
    bool derived = false;   ///< duration reported by the library, not timed here
    Counters counters;      ///< registry deltas over exactly this interval
};

/// Totals the traced pass reads off layer results rather than counters.
struct LayerFacts {
    double primes_ms = 0.0;
    double cover_build_ms = 0.0;   ///< whole build_covering_table span
    double primes = 0.0;
    double cover_rows = 0.0;
    double onset_minterms = 0.0;
    double scg_ms = 0.0;
    double portfolio_ms = 0.0;
    double bnb_ms = 0.0;
    double bnb_nodes = 0.0;
    double verify_ms = 0.0;
};

enum class Kind { kPla, kScp };

struct Workload {
    std::string name;
    Kind kind = Kind::kPla;
    std::string entry;    ///< the top-level library function timed
    int threads = 1;      ///< worker threads the top-level call may use
    bool check_tabular_primes = false;  ///< QM prime-count oracle
    bool require_optimal = false;       ///< exact solve must be proved
    std::vector<Instance> instances;
};

/// Builds the workload's instances from the run seed. `small` selects the
/// self-test sizes.
Workload make_workload(const std::string& name, std::uint64_t seed, bool small);

/// The workloads this program runs (BENCHMARK.json lists all but pla_dense).
const std::vector<std::string>& workload_names();

/// The untraced top-level call.
Answer solve(const Workload& w, const Instance& inst);

/// The traced composition of the same answer: appends the instance's spans
/// (root first) to `spans` and fills `facts`. `t0_ms` is the traced pass's
/// start on the steady clock, in ms.
Answer solve_traced(const Workload& w, const Instance& inst, std::size_t idx,
                    double t0_ms, std::vector<Span>& spans, LayerFacts& facts);

/// Full oracle check of one answer. Returns "" when correct, otherwise why
/// not. Runs outside every timed section.
std::string oracle_check(const Workload& w, const Instance& inst,
                         const Answer& a);

/// Cheap check of a repeated answer against the instance's oracle-checked
/// reference answer (same cover, or a feasible cover of the same cost).
std::string repeat_check(const Workload& w, const Instance& inst,
                         const Answer& a, const Answer& reference);

/// Removes one product (PLA) or one column (SCP) — the self-test's wrong
/// answer.
void drop_one_element(Answer& a);

/// Milliseconds on the steady clock.
double now_ms();

/// Turns the operator new/delete accounting of heap.cpp on or off (off at
/// start). Only the untimed heap pass turns it on.
void set_heap_accounting(bool on);

/// Bytes live through operator new while accounting was on, and their
/// high-water mark since the last reset_heap_peak().
std::int64_t heap_live_bytes();
std::int64_t heap_peak_bytes();
void reset_heap_peak();

}  // namespace perfbench
