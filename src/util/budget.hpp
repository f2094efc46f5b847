// The resource governor of the anytime solver harness.
//
// One Budget instance governs one solve: it tracks a wall-clock deadline, a
// DD node/arena budget, an optional iteration cap and a cooperative
// CancelToken, and every long-running loop polls it:
//
//   * ZddManager/BddManager charge_node() at arena growth;
//   * implicit_primes and the table refinement poll check() at recursion
//     roots;
//   * subgradient / dual_ascent charge_iteration() per iteration;
//   * scg polls per run / fixing step; bnb per expanded node.
//
// A trip is *cooperative*: the poll returns a non-kOk Status (or the DD layer
// throws a ResourceError to unwind its recursion) and the caller finalises
// with its best-so-far answer. Deadline/cancel trips are sticky and global;
// a node-budget trip is sticky only for further DD work, so the explicit
// fallback solver keeps running after the implicit phase is abandoned.
//
// Parallel multi-starts fork() the governor: children share the cancel token
// and the absolute deadline but count nodes/iterations — and fault-injection
// checks (util/fault.hpp) — independently, which keeps the trip point of each
// start independent of the thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/fault.hpp"
#include "util/mem_budget.hpp"
#include "util/status.hpp"

namespace ucp {

/// Cooperative cancellation flag, shareable across threads (and settable
/// from a signal handler: the store is lock-free).
class CancelToken {
public:
    void cancel() noexcept { flag_.store(true, std::memory_order_release); }
    void reset() noexcept { flag_.store(false, std::memory_order_release); }
    [[nodiscard]] bool cancelled() const noexcept {
        return flag_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<bool> flag_{false};
};

struct BudgetOptions {
    /// Wall-clock deadline from Budget construction. 0 = unlimited.
    double deadline_seconds = 0.0;
    /// Max DD arena growths charged across the solve (ZDD + BDD managers
    /// combined). 0 = unlimited. Tripping this only aborts DD work — the
    /// explicit path keeps running (the fallback contract).
    std::size_t zdd_node_budget = 0;
    /// Max governed iterations (subgradient steps + bnb expansions). 0 =
    /// unlimited. Reported as Status::kDeadline (a compute budget).
    std::uint64_t iteration_cap = 0;
    /// Fault-injection override. Disabled here means "read UCP_FAULT from
    /// the environment at Budget construction".
    fault::Spec fault{};
    /// Byte accountant for long-lived allocations (DD arenas, tables,
    /// caches, matrices, workspaces). nullptr means "use
    /// MemoryBudget::process_default()" — which is itself nullptr (no
    /// accounting at all) unless UCP_MEM_BUDGET or a mem-kind UCP_FAULT
    /// spec is set. Not owned; must outlive the Budget.
    MemoryBudget* memory = nullptr;
};

class Budget {
public:
    /// Unlimited governor: never trips (unless UCP_FAULT says otherwise).
    Budget() : Budget(BudgetOptions{}) {}
    explicit Budget(const BudgetOptions& opt, CancelToken* cancel = nullptr);

    /// Child governor for an independent parallel start: same options,
    /// cancel token and *absolute* deadline; fresh node/iteration counters
    /// and fault-injection state.
    [[nodiscard]] Budget fork() const;

    /// Polls cancel / deadline (and injected faults). Sticky once tripped.
    [[nodiscard]] Status check() noexcept {
        if (tripped_ != Status::kOk) return tripped_;
        return check_slow();
    }

    /// Per-iteration poll: iteration cap + check().
    [[nodiscard]] Status charge_iteration() noexcept;

    /// Per-DD-arena-growth poll: node budget + injected allocation faults,
    /// with an amortised (every 1024 nodes) deadline/cancel check so hot
    /// construction loops stay cheap.
    [[nodiscard]] Status charge_node(std::size_t n = 1) noexcept;

    /// Deadline/cancel trip status (kOk while only the node budget tripped).
    [[nodiscard]] Status status() const noexcept { return tripped_; }
    [[nodiscard]] bool node_budget_tripped() const noexcept {
        return node_tripped_;
    }
    [[nodiscard]] std::uint64_t nodes_charged() const noexcept { return nodes_; }
    [[nodiscard]] std::uint64_t iterations_charged() const noexcept {
        return iterations_;
    }
    [[nodiscard]] const BudgetOptions& options() const noexcept { return opt_; }
    [[nodiscard]] CancelToken* cancel_token() const noexcept { return cancel_; }

    /// The byte accountant governing this solve (nullptr = unaccounted).
    /// Shared by fork() children: memory is a pooled resource, unlike the
    /// per-start node/iteration counters.
    [[nodiscard]] MemoryBudget* memory() const noexcept { return mem_; }

    /// Charges `bytes` of long-lived footprint. On denial the governor trips
    /// sticky kResourceExhausted — stage 4 of the degradation ladder — and
    /// returns false; the caller finalises with its best anytime incumbent.
    [[nodiscard]] bool charge_memory(std::size_t bytes) noexcept;
    void release_memory(std::size_t bytes) noexcept;

private:
    using Clock = std::chrono::steady_clock;

    Status check_slow() noexcept;        // fault + cancel + clock read
    Status trip(Status s) noexcept;      // records sticky state + stats

    BudgetOptions opt_{};
    CancelToken* cancel_ = nullptr;
    Clock::time_point deadline_at_{};
    bool has_deadline_ = false;
    fault::Injector fault_{fault::Spec{}};
    MemoryBudget* mem_ = nullptr;

    std::uint64_t nodes_ = 0;
    std::uint64_t iterations_ = 0;
    Status tripped_ = Status::kOk;  // deadline / cancel, sticky
    bool node_tripped_ = false;     // node budget, sticky for DD work only
};

/// Throws a ResourceError carrying `st` unless it is kOk. For the recursive
/// DD layers, where unwinding through the RAII Zdd handles is the exit path.
void throw_if_error(Status st, const char* where);

}  // namespace ucp
