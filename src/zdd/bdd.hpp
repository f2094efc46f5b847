// A compact BDD (reduced ordered binary decision diagram) engine.
//
// Used by the implicit prime-implicant generator: the Boolean function is built
// as a BDD from its cover, then the Coudert–Madre recursion turns it into a ZDD
// of prime cubes. The engine is deliberately small: no complement edges, no
// dynamic reordering — the recursion only needs AND/OR and the nodes'
// children on functions of moderate support.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "zdd/dd_common.hpp"

namespace ucp::zdd {

using BddId = std::uint32_t;
inline constexpr BddId kBddFalse = 0;
inline constexpr BddId kBddTrue = 1;
inline constexpr std::uint32_t kBddTermVar = 0xFFFFFFFFu;

/// BDD node manager. Unlike the ZDD manager it has no external-reference GC:
/// a BddManager is created per prime-generation call and discarded afterwards,
/// which matches the paper's usage (the function BDD is a transient artifact).
class BddManager {
public:
    explicit BddManager(std::uint32_t num_vars, const DdOptions& options = {});
    /// Flushes the computed-cache counters into the global stats registry
    /// ("bdd.cache_hits" / "bdd.cache_misses" / "bdd.cache_resizes").
    ~BddManager();

    BddManager(const BddManager&) = delete;
    BddManager& operator=(const BddManager&) = delete;

    [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }

    // ---- constructors -------------------------------------------------------
    [[nodiscard]] BddId bfalse() const noexcept { return kBddFalse; }
    [[nodiscard]] BddId btrue() const noexcept { return kBddTrue; }
    BddId var(std::uint32_t v);   ///< the function x_v
    BddId nvar(std::uint32_t v);  ///< the function ¬x_v

    // ---- operations ----------------------------------------------------------
    BddId and_(BddId a, BddId b);
    BddId or_(BddId a, BddId b);

    // ---- queries --------------------------------------------------------------
    [[nodiscard]] std::uint32_t var_of(BddId n) const noexcept {
        return n < 2 ? kBddTermVar : nodes_[n].var;
    }
    [[nodiscard]] BddId lo_of(BddId n) const noexcept { return nodes_[n].lo; }
    [[nodiscard]] BddId hi_of(BddId n) const noexcept { return nodes_[n].hi; }
    [[nodiscard]] bool is_const(BddId n) const noexcept { return n < 2; }

    /// Total allocated nodes (a size/debug metric).
    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

    /// Computed-cache statistics since construction (same shape as the ZDD
    /// manager's; flushed into the stats registry by the destructor).
    struct CacheStats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t resizes = 0;
    };
    [[nodiscard]] CacheStats cache_stats() const noexcept {
        return CacheStats{cache_.hits(), cache_.misses(), cache_.resizes()};
    }

    /// Folds this manager's bdd.* statistics into the global registry.
    /// Delta-based and idempotent (same contract as ZddManager::flush_stats):
    /// repeated calls and the destructor's implicit call never double-count.
    void flush_stats() noexcept;

    BddId make(std::uint32_t v, BddId lo, BddId hi);

private:
    enum class Op : std::uint8_t { kAnd = 1, kOr = 2 };

    struct Node {
        std::uint32_t var;
        BddId lo;
        BddId hi;
    };

    BddId apply(Op op, BddId a, BddId b);

    // Memory-budget accounting (DESIGN.md §13) — same ladder as the ZDD
    // manager minus stage 2: a transient BDD has no GC, so denial goes shed
    // → retry → kNodeBudget (the implicit→explicit fallback signal).
    [[nodiscard]] std::size_t footprint_bytes() const noexcept;
    void sync_memory();
    void cache_store(std::uint64_t key, BddId result) {
        const std::uint64_t grew = cache_.resizes();
        cache_.store(key, result);
        if (mem_.governed() && cache_.resizes() != grew) sync_memory();
    }

    std::uint32_t num_vars_;
    std::vector<Node> nodes_;
    CacheStats cache_flushed_;  // values already rolled up by flush_stats()
    UniqueTable<Node> table_;
    ComputedCache<BddId> cache_;
    Budget* governor_ = nullptr;
    MemTracker mem_;  ///< byte accountant hook (null = unaccounted)
};

}  // namespace ucp::zdd
