// Zero-suppressed Binary Decision Diagram (ZDD) package.
//
// This is the substrate that replaces the CUDD library [21] used by the paper.
// A ZDD canonically represents a family of sets over variables 0..num_vars-1
// (Minato, DAC'93 [18]). The covering algorithms use ZDDs for:
//   * sets of cubes (prime implicants), with two ZDD variables per input
//     variable (positive / negative literal) — see zdd_cubes.hpp;
//   * sets of minterms (one ZDD variable per input variable, a minterm being
//     the set of variables assigned 1) — used by the implicit covering phase.
//
// Design notes
//   * Nodes live in a flat arena (std::vector): the hot (var, lo, hi) fields
//     are packed contiguously per node, while the cold per-node bookkeeping
//     (external refcounts, free/mark flags) lives in separate arrays so
//     recursions touch only the hot array. NodeId 0 is the empty family
//     (terminal 0) and NodeId 1 is the unit family {∅} (terminal 1).
//   * Canonicity: hi == 0 is never materialised (zero-suppression rule) and a
//     unique table guarantees structural sharing.
//   * Chain nodes (DdOptions::chain_nodes, default on): a node carries a level
//     interval ⟨t:b⟩ packed into the 32-bit var field (top level in the high
//     24 bits, span b−t in the low 8), representing
//         ⟦⟨t:b, lo, hi⟩⟧ = { {t,…,b−1} ∪ S : S ∈ ⟦lo⟧ ∪ {b}⊔⟦hi⟧ },
//     i.e. a maximal run of "must-contain" levels compressed into one arena
//     record (Bryant's chain reduction, zero-chain variant — DESIGN.md §12).
//     A plain node is the t == b special case, so the stride stays 12 bytes
//     and the unique-table hash/equality work on the packed field unchanged.
//     make() absorbs (v, ∅, hi) into hi's chain automatically, so chain
//     formation is invisible to callers; runs longer than 255 levels split
//     into segments.
//   * A lossy, growable set-associative computed cache (dd_common.hpp)
//     memoises operations; the fused split (a ∩ b, a − b) gets its own
//     pair-memo.
//   * External references are RAII handles (class Zdd). Garbage collection is
//     mark-and-sweep from the externally referenced roots; it runs only
//     between top-level operations, never during a recursion.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "zdd/dd_common.hpp"

namespace ucp::zdd {

using NodeId = std::uint32_t;
using Var = std::uint32_t;

inline constexpr NodeId kEmpty = 0;  ///< terminal 0: the empty family {}
inline constexpr NodeId kBase = 1;   ///< terminal 1: the unit family {∅}
inline constexpr Var kTermVar = 0xFFFFFFFFu;

class ZddManager;

/// RAII handle to a ZDD root. Keeps the referenced subgraph alive across GC.
/// Cheap to copy (bumps a per-node external refcount).
class Zdd {
public:
    Zdd() noexcept : mgr_(nullptr), id_(kEmpty) {}
    Zdd(ZddManager* mgr, NodeId id);
    Zdd(const Zdd& other);
    Zdd(Zdd&& other) noexcept;
    Zdd& operator=(const Zdd& other);
    Zdd& operator=(Zdd&& other) noexcept;
    ~Zdd();

    [[nodiscard]] NodeId id() const noexcept { return id_; }
    [[nodiscard]] ZddManager* manager() const noexcept { return mgr_; }
    [[nodiscard]] bool is_empty() const noexcept { return id_ == kEmpty; }
    [[nodiscard]] bool is_base() const noexcept { return id_ == kBase; }

    // Canonical representation: structural equality is id equality.
    friend bool operator==(const Zdd& a, const Zdd& b) noexcept {
        return a.id_ == b.id_ && a.mgr_ == b.mgr_;
    }
    friend bool operator!=(const Zdd& a, const Zdd& b) noexcept { return !(a == b); }

    /// Number of sets in the family (saturating at ~1e18 as uint64, exact as double
    /// up to 2^53).
    [[nodiscard]] double count() const;
    /// Number of DAG nodes reachable from this root (excluding terminals).
    [[nodiscard]] std::size_t node_count() const;

private:
    friend class ZddManager;
    void release() noexcept;

    ZddManager* mgr_;
    NodeId id_;
};

/// The node arena, unique table, computed cache and operation implementations.
class ZddManager {
public:
    explicit ZddManager(Var num_vars, const DdOptions& options = {});
    /// Flushes the cache, GC and chain counters into the global stats
    /// registry ("zdd.cache_hits" / "zdd.cache_misses" / "zdd.cache_resizes"
    /// / "zdd.gc_runs" / "zdd.nodes_swept" / "zdd.chain_nodes_made" /
    /// "zdd.chain_hits").
    ~ZddManager();

    ZddManager(const ZddManager&) = delete;
    ZddManager& operator=(const ZddManager&) = delete;

    [[nodiscard]] Var num_vars() const noexcept { return num_vars_; }

    // ---- constructors -------------------------------------------------------
    Zdd empty() { return Zdd(this, kEmpty); }
    Zdd base() { return Zdd(this, kBase); }

    // ---- core set operations ------------------------------------------------
    Zdd union_(const Zdd& a, const Zdd& b);
    Zdd intersect(const Zdd& a, const Zdd& b);
    Zdd diff(const Zdd& a, const Zdd& b);
    /// (a ∩ b, a − b) in one walk with a pair-memo: the partition-refinement
    /// step of the covering-table build. By canonicity the halves are the
    /// same nodes intersect() and diff() return. When a ∩ b is empty the
    /// difference is `a` itself, returned without rebuilding it.
    std::pair<Zdd, Zdd> split(const Zdd& a, const Zdd& b);

    // ---- queries -------------------------------------------------------------
    double count(const Zdd& a);
    std::size_t node_count(const Zdd& a) const;
    /// Invokes fn once per set in the family, with the sorted member variables.
    void for_each_set(const Zdd& a,
                      const std::function<void(const std::vector<Var>&)>& fn) const;
    /// Computed-cache statistics since construction. Each manager is
    /// single-threaded, so these are plain (non-atomic) counters; the
    /// destructor folds them into the global stats registry.
    struct CacheStats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t resizes = 0;
        [[nodiscard]] double hit_rate() const noexcept {
            const std::uint64_t total = hits + misses;
            return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
        }
    };
    [[nodiscard]] CacheStats cache_stats() const noexcept {
        return CacheStats{cache_.hits() + pair_cache_.hits(),
                          cache_.misses() + pair_cache_.misses(),
                          cache_.resizes() + pair_cache_.resizes()};
    }
    /// GC statistics since construction (also flushed by the destructor).
    struct GcStats {
        std::uint64_t runs = 0;
        std::uint64_t nodes_swept = 0;
    };
    [[nodiscard]] const GcStats& gc_stats() const noexcept { return gc_stats_; }
    /// Chain-encoding statistics since construction (also flushed by the
    /// destructor, as "zdd.chain_nodes_made" / "zdd.chain_hits").
    struct ChainStats {
        /// Arena nodes created with a compressed span (bot > top), counting
        /// free-list reuse; 0 with chain_nodes off.
        std::uint64_t nodes_made = 0;
        /// Operator recursions that took a chain-aware fast path: a
        /// multi-level equal-top step, a whole-chain shortcut answer, or a
        /// make() absorption.
        std::uint64_t hits = 0;
    };
    [[nodiscard]] const ChainStats& chain_stats() const noexcept {
        return chain_stats_;
    }
    /// Whether this manager builds chain nodes (DdOptions::chain_nodes).
    [[nodiscard]] bool chain_nodes_enabled() const noexcept {
        return chain_nodes_;
    }

    /// Folds this manager's zdd.* statistics into the global registry.
    /// Delta-based and idempotent: only the activity since the previous
    /// flush is added, so calling it mid-life and again from the destructor
    /// (which always calls it) can never double-count — manager-scoped
    /// counters, process-level roll-up.
    void flush_stats() noexcept;

    // ---- resource management --------------------------------------------------
    /// Live (allocated, non-freed) node count, excluding terminals.
    [[nodiscard]] std::size_t live_nodes() const noexcept {
        return nodes_.size() - 2 - free_.size();
    }
    /// Mark-and-sweep collection from externally referenced roots.
    /// Returns the number of nodes reclaimed.
    std::size_t gc();

    /// The resource governor this manager charges arena growth to (from
    /// DdOptions::governor; nullptr = ungoverned). Recursion roots built on
    /// top of the manager (implicit_primes, the table refinement) poll it
    /// too.
    [[nodiscard]] Budget* governor() const noexcept { return governor_; }

    /// Reserved footprint in bytes: arena + cold arrays + unique table +
    /// computed caches, by capacity. This is the amount synced against the
    /// byte accountant (the governor's MemoryBudget) at every growth point.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return footprint_bytes();
    }

    // Internal node accessors — used by the BDD/prime layers which share the
    // recursion style; exposed as public-but-low-level API.
    //
    // `var` packs the chain interval: top level in bits 31..8, span (bot −
    // top, ≤ 255) in bits 7..0. Plain nodes have span 0, so for them the
    // packed value is just `top << 8` and all pre-chain invariants hold.
    struct Node {
        Var var;  ///< packed (top << 8) | (bot − top)
        NodeId lo;
        NodeId hi;
    };
    /// Top level of the node's interval (the smallest variable of its sets).
    [[nodiscard]] Var var_of(NodeId n) const noexcept {
        return n < 2 ? kTermVar : nodes_[n].var >> 8;
    }
    /// Bottom (branching) level of the interval; == var_of for plain nodes.
    [[nodiscard]] Var bot_of(NodeId n) const noexcept {
        return n < 2 ? kTermVar : (nodes_[n].var >> 8) + (nodes_[n].var & 0xFFu);
    }
    /// True iff the node compresses a multi-level chain (bot > top).
    [[nodiscard]] bool is_chain(NodeId n) const noexcept {
        return n >= 2 && (nodes_[n].var & 0xFFu) != 0;
    }
    [[nodiscard]] NodeId lo_of(NodeId n) const noexcept { return nodes_[n].lo; }
    [[nodiscard]] NodeId hi_of(NodeId n) const noexcept { return nodes_[n].hi; }
    /// Hash-consed node constructor enforcing the zero-suppression rule and
    /// (with chain_nodes) the chain absorption rule.
    NodeId make(Var v, NodeId lo, NodeId hi);
    /// General chain constructor for ⟨t:b, lo, hi⟩ (t ≤ b ≤ bottom of a
    /// 255-level segment). Canonicalises: zero-suppression (hi == ∅ folds the
    /// branch level into the prefix), t == b degenerates to make(), and a
    /// ∅-lo child whose hi chains on at b+1 is merged in. Every operator
    /// result goes through here, which is what keeps chain formation
    /// automatic.
    NodeId make_chain(Var t, Var b, NodeId lo, NodeId hi);

    /// Wraps a raw node id into an owning handle.
    Zdd handle(NodeId n) { return Zdd(this, n); }

private:
    friend class Zdd;

    // Fixed values: they salt dd_cache_key, so renumbering moves cache slots.
    enum class Op : std::uint8_t {
        kUnion = 1,
        kIntersect = 2,
        kDiff = 3,
        kSplit = 15,
    };

    /// split's result: (a ∩ b, a − b).
    struct NodePair {
        NodeId lo = kEmpty;
        NodeId hi = kEmpty;
    };

    // Recursive cores (operate on NodeIds).
    NodeId union_rec(NodeId a, NodeId b);
    NodeId intersect_rec(NodeId a, NodeId b);
    NodeId diff_rec(NodeId a, NodeId b);
    NodePair split_rec(NodeId a, NodeId b);
    bool contains_empty(NodeId a) const noexcept;

    /// Hash-cons with an already-packed var field (shared tail of make /
    /// make_chain): unique-table probe, free-list reuse or governed arena
    /// growth, chain counter.
    NodeId make_packed(Var var_bits, NodeId lo, NodeId hi);
    /// Views operand `x` of a binary operation at branch level m: c0/c1 get
    /// the sub-families without/with m. Callers pass v = the recursion's top
    /// level (var_of(x) > v means x is untouched: (x, ∅)) and m ≥ v, where
    /// m < bot_of(x) never occurs (m is min over the operand bots). A chain
    /// with bot > m views as (∅, split-at-m) — the chain-split case.
    void view_at(NodeId x, Var v, Var m, NodeId& c0, NodeId& c1);

    // External reference bookkeeping (for GC roots).
    void ref_external(NodeId n);
    void unref_external(NodeId n) noexcept;
    void maybe_gc();

    bool cache_lookup(Op op, NodeId a, NodeId b, NodeId& out) noexcept {
        return cache_.lookup(dd_cache_key(static_cast<std::uint8_t>(op), a, b), out);
    }
    void cache_store(Op op, NodeId a, NodeId b, NodeId result) {
        const std::uint64_t grew = cache_.resizes();
        cache_.store(dd_cache_key(static_cast<std::uint8_t>(op), a, b), result);
        if (mem_.governed() && cache_.resizes() != grew) sync_memory();
    }

    // ---- memory-budget accounting (DESIGN.md §13) ---------------------------
    [[nodiscard]] std::size_t footprint_bytes() const noexcept;
    /// Syncs the reserved footprint against the byte accountant, walking the
    /// in-recursion part of the degradation ladder on denial: shed + clamp
    /// the computed caches and retry (stage 1); still denied → request a
    /// boundary GC and abandon the implicit phase with a kNodeBudget
    /// ResourceError (stage 3) so the explicit fallback fires. Stage 2 (the
    /// forced collection) lives in maybe_gc(): it can only run between
    /// top-level operations.
    void sync_memory();
    /// Pops dead nodes off the arena *tail* (interior dead slots cannot
    /// move — NodeIds are addresses) and returns the capacity to the
    /// allocator when at least half of it died. Forced-GC path only.
    void trim_arena();

    Var num_vars_;
    std::vector<Node> nodes_;            // hot arena: (var, lo, hi) only
    std::vector<std::uint32_t> extref_;  // cold: external refcounts, per node
    std::vector<std::uint8_t> flags_;    // cold: kFlagFree, reusable GC mark
    std::vector<NodeId> free_;           // freed node slots available for reuse
    std::vector<NodeId> mark_stack_;     // reusable explicit GC mark stack

    UniqueTable<Node> table_;
    ComputedCache<NodeId> cache_;
    ComputedCache<NodePair> pair_cache_;  // memo for split
    GcStats gc_stats_;
    ChainStats chain_stats_;
    CacheStats cache_flushed_;  // values already rolled up by flush_stats()
    GcStats gc_flushed_;
    ChainStats chain_flushed_;

    std::size_t gc_threshold_;
    bool gc_enabled_ = true;
    bool chain_nodes_ = true;
    Budget* governor_ = nullptr;
    MemTracker mem_;           ///< byte accountant hook (null = unaccounted)
    bool gc_pending_ = false;  ///< a mid-recursion denial asked for a GC
    std::size_t gc_floor_ = 0; ///< anti-thrash floor for pressure-forced GC
};

}  // namespace ucp::zdd
