#include "zdd/zdd.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/stats.hpp"
#include "util/trace.hpp"

namespace ucp::zdd {

// ---------------------------------------------------------------------------
// Zdd handle
// ---------------------------------------------------------------------------

Zdd::Zdd(ZddManager* mgr, NodeId id) : mgr_(mgr), id_(id) {
    if (mgr_ != nullptr) mgr_->ref_external(id_);
}

Zdd::Zdd(const Zdd& other) : mgr_(other.mgr_), id_(other.id_) {
    if (mgr_ != nullptr) mgr_->ref_external(id_);
}

Zdd::Zdd(Zdd&& other) noexcept : mgr_(other.mgr_), id_(other.id_) {
    other.mgr_ = nullptr;
    other.id_ = kEmpty;
}

Zdd& Zdd::operator=(const Zdd& other) {
    if (this != &other) {
        Zdd tmp(other);
        std::swap(mgr_, tmp.mgr_);
        std::swap(id_, tmp.id_);
    }
    return *this;
}

Zdd& Zdd::operator=(Zdd&& other) noexcept {
    if (this != &other) {
        release();
        mgr_ = other.mgr_;
        id_ = other.id_;
        other.mgr_ = nullptr;
        other.id_ = kEmpty;
    }
    return *this;
}

Zdd::~Zdd() { release(); }

void Zdd::release() noexcept {
    if (mgr_ != nullptr) {
        mgr_->unref_external(id_);
        mgr_ = nullptr;
        id_ = kEmpty;
    }
}

// A default-constructed Zdd is the empty family with no manager.
double Zdd::count() const { return mgr_ == nullptr ? 0.0 : mgr_->count(*this); }

std::size_t Zdd::node_count() const {
    return mgr_ == nullptr ? 0 : mgr_->node_count(*this);
}

// ---------------------------------------------------------------------------
// Manager: construction, unique table, cache
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kInitialTable = 1u << 12;
// Cold per-node flag bits (flags_ array).
constexpr std::uint8_t kFlagFree = 1;  ///< slot is on the free list
constexpr std::uint8_t kFlagMark = 2;  ///< reached in the current GC mark
}  // namespace

ZddManager::ZddManager(Var num_vars, const DdOptions& options)
    : num_vars_(num_vars),
      table_(kInitialTable),
      cache_(options.cache_entries, options.max_cache_entries),
      pair_cache_(options.cache_entries / 4 < ComputedCache<NodePair>::kWays
                      ? ComputedCache<NodePair>::kWays
                      : options.cache_entries / 4,
                  options.max_cache_entries),
      gc_threshold_(options.gc_threshold),
      chain_nodes_(options.chain_nodes),
      governor_(options.governor),
      mem_(options.governor != nullptr ? options.governor->memory()
                                       : MemoryBudget::process_default()) {
    // The packed node format keeps the interval top in 24 bits (the low 8
    // hold the chain span), so levels must fit below 2^24 — far above any
    // covering workload (two ZDD vars per PLA input).
    UCP_REQUIRE(num_vars < (Var{1} << 24), "variable count out of range");
    nodes_.resize(2);  // terminals; var/lo/hi of terminals are never read
    nodes_[0] = {kTermVar, 0, 0};
    nodes_[1] = {kTermVar, 1, 1};
    extref_.resize(2, 0);
    flags_.resize(2, 0);
    // Account the construction-time footprint. Under a cap too tight even
    // for the initial tables this sheds the caches to minimum and, failing
    // that, throws kNodeBudget — the solver pipeline's fallback signal.
    sync_memory();
}

ZddManager::~ZddManager() { flush_stats(); }

void ZddManager::flush_stats() noexcept {
    const CacheStats cs = cache_stats();
    stats::counter("zdd.cache_hits").add(cs.hits - cache_flushed_.hits);
    stats::counter("zdd.cache_misses").add(cs.misses - cache_flushed_.misses);
    stats::counter("zdd.cache_resizes").add(cs.resizes - cache_flushed_.resizes);
    stats::counter("zdd.gc_runs").add(gc_stats_.runs - gc_flushed_.runs);
    stats::counter("zdd.nodes_swept")
        .add(gc_stats_.nodes_swept - gc_flushed_.nodes_swept);
    stats::counter("zdd.chain_nodes_made")
        .add(chain_stats_.nodes_made - chain_flushed_.nodes_made);
    stats::counter("zdd.chain_hits")
        .add(chain_stats_.hits - chain_flushed_.hits);
    cache_flushed_ = cs;
    gc_flushed_ = gc_stats_;
    chain_flushed_ = chain_stats_;
}

NodeId ZddManager::make(Var v, NodeId lo, NodeId hi) {
    if (hi == kEmpty) return lo;  // zero-suppression rule
    UCP_ASSERT(v < num_vars_);
    UCP_ASSERT(var_of(lo) > v && var_of(hi) > v);

    if (chain_nodes_ && lo == kEmpty && hi >= 2) {
        // Chain absorption: (v, ∅, hi) is "every set contains v, then hi".
        // When hi's interval starts right below at v+1, v joins hi's prefix:
        // ⟨v : bot(hi), hi.lo, hi.hi⟩ — unless the merged span would overflow
        // the 8-bit field, which starts a fresh segment instead. No cascade
        // is needed: hi is canonical, so its own (∅, chain-adjacent) merge
        // already happened.
        const Node& h = nodes_[hi];
        const Var htop = h.var >> 8;
        if (htop == v + 1) {
            const Var span = (htop - v) + (h.var & 0xFFu);
            if (span <= 0xFFu) {
                ++chain_stats_.hits;
                return make_packed((v << 8) | span, h.lo, h.hi);
            }
        }
    }
    return make_packed(v << 8, lo, hi);
}

NodeId ZddManager::make_chain(Var t, Var b, NodeId lo, NodeId hi) {
    // Canonicalisation loop; every rewrite strictly shrinks the interval or
    // terminates, so this runs at most twice in practice.
    while (true) {
        UCP_ASSERT(t <= b && b < num_vars_);
        if (hi == kEmpty) {
            // Zero-suppression at the branch level: ⟨t:b, lo, ∅⟩ is the
            // prefix {t..b−1} glued onto lo. Fold b−1 back into the branch
            // role: ⟨t:b−1, ∅, lo⟩ — or just lo when the prefix is empty.
            if (t == b) return lo;
            hi = lo;
            lo = kEmpty;
            --b;
            continue;
        }
        if (t == b) return make(t, lo, hi);  // plain node (or absorption)
        UCP_ASSERT(var_of(lo) > b && var_of(hi) > b);
        if (lo == kEmpty && hi >= 2) {
            // Maximality: merge a chain continuing right below b.
            const Node& h = nodes_[hi];
            const Var htop = h.var >> 8;
            if (htop == b + 1) {
                const Var span = (htop - t) + (h.var & 0xFFu);
                if (span <= 0xFFu) {
                    b = htop + (h.var & 0xFFu);
                    lo = h.lo;
                    hi = h.hi;
                    continue;
                }
            }
        }
        UCP_ASSERT(b - t <= 0xFFu);
        return make_packed((t << 8) | (b - t), lo, hi);
    }
}

NodeId ZddManager::make_packed(Var var_bits, NodeId lo, NodeId hi) {
    std::size_t slot;
    if (const NodeId found = table_.find(nodes_, var_bits, lo, hi, slot))
        return found;

    NodeId id;
    if (!free_.empty()) {
        id = free_.back();
        free_.pop_back();
        nodes_[id] = {var_bits, lo, hi};
        extref_[id] = 0;
        flags_[id] = 0;
    } else {
        // Arena growth (free-list reuse is not charged: it cannot increase
        // the memory footprint).
        if (governor_ != nullptr)
            throw_if_error(governor_->charge_node(), "zdd arena");
        id = static_cast<NodeId>(nodes_.size());
        nodes_.push_back({var_bits, lo, hi});
        extref_.push_back(0);
        flags_.push_back(0);
    }
    table_.insert(nodes_, slot, id);
    if ((var_bits & 0xFFu) != 0) ++chain_stats_.nodes_made;
    // Sync any capacity growth (arena reallocation, table rehash) against
    // the byte accountant. May throw — the node is already consistent, so
    // unwinding here is as safe as the charge_node trip above.
    if (mem_.governed()) sync_memory();
    return id;
}

std::size_t ZddManager::footprint_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Node) +
           extref_.capacity() * sizeof(std::uint32_t) +
           flags_.capacity() * sizeof(std::uint8_t) +
           free_.capacity() * sizeof(NodeId) +
           mark_stack_.capacity() * sizeof(NodeId) + table_.memory_bytes() +
           cache_.memory_bytes() + pair_cache_.memory_bytes();
}

void ZddManager::sync_memory() {
    if (!mem_.governed() || mem_.sync(footprint_bytes())) return;
    // Stage 1: freeze adaptive cache growth and halve the memo tables until
    // the charge fits or both caches are at minimum size. Dropping memo
    // entries only costs recomputation, never correctness.
    cache_.clamp_growth();
    pair_cache_.clamp_growth();
    for (;;) {
        const std::size_t freed = cache_.shed() + pair_cache_.shed();
        if (freed > 0) {
            stats::counter("mem.cache_sheds").add();
            TRACE_INSTANT("mem.stage1_cache_shed");
        }
        if (mem_.sync(footprint_bytes())) return;
        if (freed == 0) break;
    }
    // Stage 3: abandon the implicit phase. A GC cannot run here (a recursion
    // may hold intermediate results as raw NodeIds on the call stack), so
    // flag one for the next operation boundary and throw the node-budget
    // status the implicit→explicit fallback machinery already catches.
    gc_pending_ = true;
    stats::counter("mem.dd_trips").add();
    TRACE_INSTANT("mem.stage3_dd_trip");
    throw ResourceError(Status::kNodeBudget, "zdd arena: memory budget exhausted");
}

void ZddManager::trim_arena() {
    std::size_t new_size = nodes_.size();
    while (new_size > 2 && (flags_[new_size - 1] & kFlagFree)) --new_size;
    if (new_size == nodes_.size()) return;
    std::erase_if(free_, [&](NodeId n) { return n >= new_size; });
    nodes_.resize(new_size);
    extref_.resize(new_size);
    flags_.resize(new_size);
    if (nodes_.capacity() >= new_size * 2) {
        nodes_.shrink_to_fit();
        extref_.shrink_to_fit();
        flags_.shrink_to_fit();
        free_.shrink_to_fit();
    }
}

void ZddManager::view_at(NodeId x, Var v, Var m, NodeId& c0, NodeId& c1) {
    if (var_of(x) > v) {  // x has no level ≤ v (incl. terminals)
        c0 = x;
        c1 = kEmpty;
        return;
    }
    const Var bx = bot_of(x);
    if (bx == m) {  // branch level aligned: children are the views
        c0 = nodes_[x].lo;
        c1 = nodes_[x].hi;
        return;
    }
    // Chain-split case: x's interval extends past m, so every x-set contains
    // m and the view below m is the remainder chain ⟨m+1 : bot, lo, hi⟩.
    UCP_ASSERT(bx > m);
    c0 = kEmpty;
    c1 = make_chain(m + 1, bx, nodes_[x].lo, nodes_[x].hi);
}

void ZddManager::ref_external(NodeId n) {
    UCP_ASSERT(n < extref_.size());
    ++extref_[n];
}

void ZddManager::unref_external(NodeId n) noexcept {
    if (n < extref_.size() && extref_[n] > 0) --extref_[n];
}

void ZddManager::maybe_gc() {
    if (!gc_enabled_) return;
    if (live_nodes() > gc_threshold_) {
        const std::size_t reclaimed = gc();
        // Grow the threshold if the working set is genuinely large, so GC
        // doesn't thrash.
        if (reclaimed < gc_threshold_ / 4) gc_threshold_ *= 2;
        return;
    }
    // Stage 2 of the degradation ladder: a boundary-forced collection under
    // memory pressure. A mid-recursion denial sets gc_pending_; the pressure
    // poll fires *before* the first denial. This runs only here — never
    // inside a recursion, where intermediate results are held by raw NodeIds
    // on the call stack (not external refs) and a sweep would reclaim them.
    if (mem_.governed() &&
        (gc_pending_ ||
         (mem_.budget()->under_pressure() && live_nodes() > gc_floor_))) {
        gc_pending_ = false;
        stats::counter("mem.forced_gcs").add();
        TRACE_INSTANT("mem.stage2_forced_gc");
        gc();
        trim_arena();
        // Anti-thrash: don't force again until the live set has doubled.
        gc_floor_ = live_nodes() * 2;
        sync_memory();
    }
}

std::size_t ZddManager::gc() {
    // Mark phase: explicit stack (reused across runs) from the externally
    // referenced roots. Marks live in the cold flags_ array, so the pass
    // allocates nothing once the buffers are warm.
    for (std::uint8_t& f : flags_) f &= static_cast<std::uint8_t>(~kFlagMark);
    flags_[0] |= kFlagMark;
    flags_[1] |= kFlagMark;

    mark_stack_.clear();
    for (NodeId n = 2; n < nodes_.size(); ++n)
        if (extref_[n] > 0) mark_stack_.push_back(n);

    while (!mark_stack_.empty()) {
        const NodeId n = mark_stack_.back();
        mark_stack_.pop_back();
        if (flags_[n] & kFlagMark) continue;
        flags_[n] |= kFlagMark;
        const Node& nd = nodes_[n];
        if (!(flags_[nd.lo] & kFlagMark)) mark_stack_.push_back(nd.lo);
        if (!(flags_[nd.hi] & kFlagMark)) mark_stack_.push_back(nd.hi);
    }

    // Sweep: everything unmarked and not already free goes to the free list
    // (the free flag is maintained incrementally, so no rebuild is needed).
    std::size_t reclaimed = 0;
    for (NodeId n = 2; n < nodes_.size(); ++n) {
        if (!(flags_[n] & (kFlagMark | kFlagFree))) {
            flags_[n] |= kFlagFree;
            free_.push_back(n);
            ++reclaimed;
        }
    }

    // Rebuild the unique table from live nodes and drop the caches (they may
    // reference dead nodes). Capacities are kept.
    table_.clear();
    for (NodeId n = 2; n < nodes_.size(); ++n)
        if (flags_[n] & kFlagMark) table_.reinsert(nodes_, n);
    cache_.clear();
    pair_cache_.clear();
    ++gc_stats_.runs;
    gc_stats_.nodes_swept += reclaimed;
    return reclaimed;
}

// ---------------------------------------------------------------------------
// Core set operations
// ---------------------------------------------------------------------------

Zdd ZddManager::union_(const Zdd& a, const Zdd& b) {
    Zdd r = handle(union_rec(a.id(), b.id()));
    maybe_gc();
    return r;
}

NodeId ZddManager::union_rec(NodeId a, NodeId b) {
    if (a == b || b == kEmpty) return a;
    if (a == kEmpty) return b;
    if (a > b) std::swap(a, b);  // commutative: canonicalise the cache key
    NodeId cached;
    if (cache_lookup(Op::kUnion, a, b, cached)) return cached;

    const Var va = var_of(a), vb = var_of(b);
    NodeId r;
    if (va != vb) {
        // One-sided step at v = min(va, vb): the other operand contributes
        // wholly to the lo-view. A chain on the v side views as (∅, rest).
        const Var v = std::min(va, vb);
        NodeId a0, a1, b0, b1;
        view_at(a, v, v, a0, a1);
        view_at(b, v, v, b0, b1);
        r = make(v, union_rec(a0, b0), union_rec(a1, b1));
    } else {
        // Equal tops: the shared must-prefix {va..m−1} (m = the nearer branch
        // level) distributes over the union, so the whole aligned prefix is
        // one step — the chain fast path.
        const Var m = std::min(bot_of(a), bot_of(b));
        if (m > va) ++chain_stats_.hits;
        NodeId a0, a1, b0, b1;
        view_at(a, va, m, a0, a1);
        view_at(b, va, m, b0, b1);
        r = make_chain(va, m, union_rec(a0, b0), union_rec(a1, b1));
    }
    cache_store(Op::kUnion, a, b, r);
    return r;
}

Zdd ZddManager::intersect(const Zdd& a, const Zdd& b) {
    Zdd r = handle(intersect_rec(a.id(), b.id()));
    maybe_gc();
    return r;
}

NodeId ZddManager::intersect_rec(NodeId a, NodeId b) {
    if (a == b) return a;
    if (a == kEmpty || b == kEmpty) return kEmpty;
    if (a > b) std::swap(a, b);
    // One operand terminal-1: keep ∅ if the other family contains it.
    if (a == kBase) return contains_empty(b) ? kBase : kEmpty;
    NodeId cached;
    if (cache_lookup(Op::kIntersect, a, b, cached)) return cached;

    const Var va = var_of(a), vb = var_of(b);
    NodeId r;
    if (va < vb) {
        // Sets of a containing va cannot be in b. A chain a has only such
        // sets — whole-chain shortcut, no split materialised.
        if (is_chain(a)) {
            ++chain_stats_.hits;
            r = kEmpty;
        } else {
            r = intersect_rec(nodes_[a].lo, b);
        }
    } else if (vb < va) {
        if (is_chain(b)) {
            ++chain_stats_.hits;
            r = kEmpty;
        } else {
            r = intersect_rec(a, nodes_[b].lo);
        }
    } else {
        // Equal tops: the shared prefix distributes over ∩.
        const Var m = std::min(bot_of(a), bot_of(b));
        if (m > va) ++chain_stats_.hits;
        NodeId a0, a1, b0, b1;
        view_at(a, va, m, a0, a1);
        view_at(b, va, m, b0, b1);
        r = make_chain(va, m, intersect_rec(a0, b0), intersect_rec(a1, b1));
    }
    cache_store(Op::kIntersect, a, b, r);
    return r;
}

Zdd ZddManager::diff(const Zdd& a, const Zdd& b) {
    Zdd r = handle(diff_rec(a.id(), b.id()));
    maybe_gc();
    return r;
}

NodeId ZddManager::diff_rec(NodeId a, NodeId b) {
    if (a == kEmpty || a == b) return kEmpty;
    if (b == kEmpty) return a;
    if (a == kBase) return contains_empty(b) ? kEmpty : kBase;
    NodeId cached;
    if (cache_lookup(Op::kDiff, a, b, cached)) return cached;

    const Var va = var_of(a), vb = var_of(b);
    NodeId r;
    if (va < vb) {
        // Sets of a containing va are never in b. A chain a keeps everything.
        if (is_chain(a)) {
            ++chain_stats_.hits;
            r = a;
        } else {
            r = make(va, diff_rec(nodes_[a].lo, b), nodes_[a].hi);
        }
    } else if (vb < va) {
        // Sets of b containing vb subtract nothing; a chain b subtracts
        // nothing at all.
        if (is_chain(b)) {
            ++chain_stats_.hits;
            r = a;
        } else {
            r = diff_rec(a, nodes_[b].lo);
        }
    } else {
        const Var m = std::min(bot_of(a), bot_of(b));
        if (m > va) ++chain_stats_.hits;
        NodeId a0, a1, b0, b1;
        view_at(a, va, m, a0, a1);
        view_at(b, va, m, b0, b1);
        r = make_chain(va, m, diff_rec(a0, b0), diff_rec(a1, b1));
    }
    cache_store(Op::kDiff, a, b, r);
    return r;
}

bool ZddManager::contains_empty(NodeId a) const noexcept {
    while (a >= 2) {
        if ((nodes_[a].var & 0xFFu) != 0) return false;  // mandatory levels
        a = nodes_[a].lo;
    }
    return a == kBase;
}

// ---------------------------------------------------------------------------
// Fused compound operator
// ---------------------------------------------------------------------------

std::pair<Zdd, Zdd> ZddManager::split(const Zdd& a, const Zdd& b) {
    const NodePair p = split_rec(a.id(), b.id());
    std::pair<Zdd, Zdd> r{handle(p.lo), handle(p.hi)};
    maybe_gc();
    return r;
}

// intersect_rec and diff_rec fused: one walk, one pair-cache entry. Wherever
// a ∩ b comes back empty the difference is `a` itself, returned as is instead
// of being rebuilt through the unique table.
ZddManager::NodePair ZddManager::split_rec(NodeId a, NodeId b) {
    if (a == kEmpty || b == kEmpty) return {kEmpty, a};
    if (a == b) return {a, kEmpty};
    if (a == kBase)
        return contains_empty(b) ? NodePair{kBase, kEmpty} : NodePair{kEmpty, kBase};
    NodePair cached;
    const std::uint64_t key =
        dd_cache_key(static_cast<std::uint8_t>(Op::kSplit), a, b);
    if (pair_cache_.lookup(key, cached)) return cached;

    const Var va = var_of(a), vb = var_of(b);
    NodePair r{kEmpty, a};
    if ((va < vb && is_chain(a)) || (vb < va && is_chain(b))) {
        // Every set of the chain holds its top level, which no set of the
        // other operand does: the operands are disjoint.
        ++chain_stats_.hits;
    } else if (va < vb) {
        // Sets of a containing va are never in b.
        const NodePair p = split_rec(nodes_[a].lo, b);
        if (p.lo != kEmpty) r = {p.lo, make(va, p.hi, nodes_[a].hi)};
    } else if (vb < va) {
        r = split_rec(a, nodes_[b].lo);
    } else {
        const Var m = std::min(bot_of(a), bot_of(b));
        if (m > va) ++chain_stats_.hits;
        NodeId a0, a1, b0, b1;
        view_at(a, va, m, a0, a1);
        view_at(b, va, m, b0, b1);
        const NodePair p0 = split_rec(a0, b0);
        const NodePair p1 = split_rec(a1, b1);
        if (p0.lo != kEmpty || p1.lo != kEmpty)
            r = {make_chain(va, m, p0.lo, p1.lo), make_chain(va, m, p0.hi, p1.hi)};
    }
    const std::uint64_t grew = pair_cache_.resizes();
    pair_cache_.store(key, r);
    if (mem_.governed() && pair_cache_.resizes() != grew) sync_memory();
    return r;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

double ZddManager::count(const Zdd& a) {
    std::unordered_map<NodeId, double> memo;
    const std::function<double(NodeId)> rec = [&](NodeId n) -> double {
        if (n == kEmpty) return 0.0;
        if (n == kBase) return 1.0;
        const auto it = memo.find(n);
        if (it != memo.end()) return it->second;
        const double c = rec(nodes_[n].lo) + rec(nodes_[n].hi);
        memo.emplace(n, c);
        return c;
    };
    return rec(a.id());
}

std::size_t ZddManager::node_count(const Zdd& a) const {
    std::unordered_set<NodeId> seen;
    std::vector<NodeId> stack{a.id()};
    while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        if (n < 2 || !seen.insert(n).second) continue;
        stack.push_back(nodes_[n].lo);
        stack.push_back(nodes_[n].hi);
    }
    return seen.size();
}

void ZddManager::for_each_set(
    const Zdd& a, const std::function<void(const std::vector<Var>&)>& fn) const {
    std::vector<Var> path;
    const std::function<void(NodeId)> rec = [&](NodeId n) {
        if (n == kEmpty) return;
        if (n == kBase) {
            fn(path);
            return;
        }
        // Chain prefix levels are in every set below; emission order matches
        // the decompressed plain diagram exactly (hi first at the branch).
        const Var t = var_of(n), b = bot_of(n);
        for (Var v = t; v < b; ++v) path.push_back(v);
        path.push_back(b);
        rec(nodes_[n].hi);
        path.pop_back();
        rec(nodes_[n].lo);
        path.resize(path.size() - (b - t));
    };
    rec(a.id());
}

}  // namespace ucp::zdd
