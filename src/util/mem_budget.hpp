// Hierarchical byte accountant for the anytime solver harness.
//
// A MemoryBudget answers one question — "may I keep these bytes?" — for
// every long-lived allocation in the library: DD arenas, unique tables,
// computed caches, CSR matrices, Lagrangian/BnB workspaces. Holders charge
// *capacity* growth at their reservation points (a MemTracker syncs the
// delta) and release on shrink/destruction, so `used()` tracks reserved
// footprint, not malloc traffic, and the hot path stays two relaxed atomic
// RMWs.
//
// Accountants form a tree: a child charges itself first, then its parent,
// and rolls its own charge back if any ancestor denies — so a per-solve
// sub-cap composes with a process-wide cap (one child per instance isolates
// the instances of a batch). cap_bytes == 0 means "unlimited": the
// accountant still counts (high-water reporting, fault injection) but never
// denies on its own.
//
// try_charge() never throws and never allocates; denial is a *signal*, not
// an error — the caller walks its degradation ladder (shed caches, force a
// GC, fall back to the explicit path, or surface Status::kResourceExhausted
// through Budget::charge_memory). See DESIGN.md §13.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/fault.hpp"

namespace ucp {

class MemoryBudget {
public:
    /// `cap_bytes == 0` → unlimited. `fault` defaults to the UCP_FAULT env
    /// spec; pass an explicit (possibly disabled) Spec to override.
    explicit MemoryBudget(std::size_t cap_bytes = 0,
                          MemoryBudget* parent = nullptr)
        : MemoryBudget(cap_bytes, parent, fault::spec_from_env()) {}

    MemoryBudget(std::size_t cap_bytes, MemoryBudget* parent,
                 const fault::Spec& fault) noexcept
        : cap_(cap_bytes), parent_(parent),
          fault_(fault.memory_kind() ? fault : fault::Spec{}) {}

    MemoryBudget(const MemoryBudget&) = delete;
    MemoryBudget& operator=(const MemoryBudget&) = delete;

    /// Attempts to account `bytes` against this budget and every ancestor.
    /// False on denial (cap exceeded anywhere, or an injected failure);
    /// the accounting is fully rolled back on denial. Never throws.
    [[nodiscard]] bool try_charge(std::size_t bytes) noexcept {
        if (bytes == 0) return true;
        if (fault_.memory_kind()) {
            const std::uint64_t idx =
                charges_.fetch_add(1, std::memory_order_relaxed) + 1;
            if (fault::mem_charge_fails(fault_, idx)) return deny(bytes);
        }
        const std::size_t prev = used_.fetch_add(bytes, std::memory_order_relaxed);
        if (cap_ != 0 && prev + bytes > cap_) {
            used_.fetch_sub(bytes, std::memory_order_relaxed);
            return deny(bytes);
        }
        if (parent_ != nullptr && !parent_->try_charge(bytes)) {
            used_.fetch_sub(bytes, std::memory_order_relaxed);
            return false;  // parent already counted the denial
        }
        raise_high_water(prev + bytes);
        return true;
    }

    /// Returns previously charged bytes. Must not exceed the outstanding
    /// charge (holders release exactly what they charged).
    void release(std::size_t bytes) noexcept {
        if (bytes == 0) return;
        used_.fetch_sub(bytes, std::memory_order_relaxed);
        if (parent_ != nullptr) parent_->release(bytes);
    }

    [[nodiscard]] std::size_t used() const noexcept {
        return used_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t cap() const noexcept { return cap_; }
    [[nodiscard]] std::size_t high_water() const noexcept {
        return high_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t denials() const noexcept {
        return denied_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] MemoryBudget* parent() const noexcept { return parent_; }

    /// True when any accountant on the parent chain sits at ≥ 7/8 of its cap
    /// (capped accountants only). The DD managers poll this at top-level
    /// operation boundaries to force a collection *before* a charge is
    /// denied mid-recursion — stage 2 of the degradation ladder, which can
    /// only run between operations (intermediate results live on the
    /// recursion stack, not in external refs).
    [[nodiscard]] bool under_pressure() const noexcept {
        for (const MemoryBudget* b = this; b != nullptr; b = b->parent_)
            if (b->cap_ != 0 && b->used() >= b->cap_ - b->cap_ / 8) return true;
        return false;
    }

    /// Remaining headroom, or SIZE_MAX when unlimited (local cap only; an
    /// ancestor may be tighter).
    [[nodiscard]] std::size_t remaining() const noexcept {
        if (cap_ == 0) return static_cast<std::size_t>(-1);
        const std::size_t u = used();
        return u >= cap_ ? 0 : cap_ - u;
    }

    /// The process-wide accountant configured by the environment:
    /// UCP_MEM_BUDGET=<MB> sets a global cap; a mem-kind UCP_FAULT spec
    /// enables an uncapped accountant so injection works without a cap.
    /// nullptr when neither is set — governed code then skips all
    /// accounting, which is what keeps the ungoverned baselines
    /// bit-identical.
    [[nodiscard]] static MemoryBudget* process_default() noexcept;

private:
    bool deny(std::size_t bytes) noexcept;
    void raise_high_water(std::size_t candidate) noexcept {
        std::size_t cur = high_.load(std::memory_order_relaxed);
        while (candidate > cur &&
               !high_.compare_exchange_weak(cur, candidate,
                                            std::memory_order_relaxed)) {
        }
    }

    std::size_t cap_;
    MemoryBudget* parent_;
    fault::Spec fault_;
    std::atomic<std::size_t> used_{0};
    std::atomic<std::size_t> high_{0};
    std::atomic<std::uint64_t> charges_{0};
    std::atomic<std::uint64_t> denied_{0};
};

/// Per-holder footprint tracker: one MemTracker guards one container
/// aggregate (a DD manager, a covering table, a solver's root state).
/// sync(footprint) charges or releases only the delta against the budget, so
/// repeated calls with an unchanged footprint cost one compare; the
/// destructor releases everything outstanding. A null budget means every
/// sync succeeds and nothing is counted — governed code stays on the exact
/// ungoverned instruction path, which is what keeps the baselines identical.
class MemTracker {
public:
    MemTracker() noexcept = default;
    explicit MemTracker(MemoryBudget* budget) noexcept : budget_(budget) {}
    MemTracker(const MemTracker&) = delete;
    MemTracker& operator=(const MemTracker&) = delete;
    MemTracker(MemTracker&& other) noexcept
        : budget_(other.budget_), charged_(other.charged_) {
        other.budget_ = nullptr;
        other.charged_ = 0;
    }
    MemTracker& operator=(MemTracker&& other) noexcept {
        if (this != &other) {
            reset();
            budget_ = other.budget_;
            charged_ = other.charged_;
            other.budget_ = nullptr;
            other.charged_ = 0;
        }
        return *this;
    }
    ~MemTracker() { reset(); }

    /// Brings the charged amount to `footprint`. False when the growth delta
    /// is denied (the charged amount is then unchanged, so the caller can
    /// shed and retry); shrinking always succeeds.
    [[nodiscard]] bool sync(std::size_t footprint) noexcept {
        if (budget_ == nullptr) return true;
        if (footprint > charged_) {
            if (!budget_->try_charge(footprint - charged_)) return false;
        } else if (footprint < charged_) {
            budget_->release(charged_ - footprint);
        }
        charged_ = footprint;
        return true;
    }

    /// Releases the full outstanding charge.
    void reset() noexcept {
        if (budget_ != nullptr && charged_ != 0) budget_->release(charged_);
        charged_ = 0;
    }

    [[nodiscard]] MemoryBudget* budget() const noexcept { return budget_; }
    [[nodiscard]] std::size_t charged() const noexcept { return charged_; }
    /// True when syncs actually account (non-null budget) — the gate every
    /// governed hot path checks first.
    [[nodiscard]] bool governed() const noexcept { return budget_ != nullptr; }

private:
    MemoryBudget* budget_ = nullptr;
    std::size_t charged_ = 0;
};

}  // namespace ucp
