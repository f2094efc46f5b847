#include "zdd/bdd.hpp"

#include <algorithm>

#include "util/stats.hpp"
#include "util/trace.hpp"

namespace ucp::zdd {

namespace {
constexpr std::size_t kInitialTable = 1u << 12;
}  // namespace

BddManager::BddManager(std::uint32_t num_vars, const DdOptions& options)
    : num_vars_(num_vars),
      table_(kInitialTable),
      cache_(options.cache_entries, options.max_cache_entries),
      governor_(options.governor),
      mem_(options.governor != nullptr ? options.governor->memory()
                                       : MemoryBudget::process_default()) {
    UCP_REQUIRE(num_vars < kBddTermVar, "variable count out of range");
    nodes_.resize(2);
    nodes_[0] = {kBddTermVar, 0, 0};
    nodes_[1] = {kBddTermVar, 1, 1};
    sync_memory();
}

BddManager::~BddManager() { flush_stats(); }

void BddManager::flush_stats() noexcept {
    const CacheStats cs = cache_stats();
    stats::counter("bdd.cache_hits").add(cs.hits - cache_flushed_.hits);
    stats::counter("bdd.cache_misses").add(cs.misses - cache_flushed_.misses);
    stats::counter("bdd.cache_resizes").add(cs.resizes - cache_flushed_.resizes);
    cache_flushed_ = cs;
}

BddId BddManager::make(std::uint32_t v, BddId lo, BddId hi) {
    if (lo == hi) return lo;  // BDD reduction rule
    UCP_ASSERT(v < num_vars_);
    UCP_ASSERT(var_of(lo) > v && var_of(hi) > v);

    std::size_t slot;
    if (const BddId found = table_.find(nodes_, v, lo, hi, slot)) return found;
    if (governor_ != nullptr)
        throw_if_error(governor_->charge_node(), "bdd arena");
    const BddId id = static_cast<BddId>(nodes_.size());
    nodes_.push_back({v, lo, hi});
    table_.insert(nodes_, slot, id);
    if (mem_.governed()) sync_memory();
    return id;
}

std::size_t BddManager::footprint_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Node) + table_.memory_bytes() +
           cache_.memory_bytes();
}

void BddManager::sync_memory() {
    if (!mem_.governed() || mem_.sync(footprint_bytes())) return;
    cache_.clamp_growth();
    for (;;) {
        const std::size_t freed = cache_.shed();
        if (freed > 0) {
            stats::counter("mem.cache_sheds").add();
            TRACE_INSTANT("mem.stage1_cache_shed");
        }
        if (mem_.sync(footprint_bytes())) return;
        if (freed == 0) break;
    }
    stats::counter("mem.dd_trips").add();
    TRACE_INSTANT("mem.stage3_dd_trip");
    throw ResourceError(Status::kNodeBudget, "bdd arena: memory budget exhausted");
}

BddId BddManager::var(std::uint32_t v) {
    UCP_REQUIRE(v < num_vars_, "variable out of range");
    return make(v, kBddFalse, kBddTrue);
}

BddId BddManager::nvar(std::uint32_t v) {
    UCP_REQUIRE(v < num_vars_, "variable out of range");
    return make(v, kBddTrue, kBddFalse);
}

BddId BddManager::and_(BddId a, BddId b) { return apply(Op::kAnd, a, b); }
BddId BddManager::or_(BddId a, BddId b) { return apply(Op::kOr, a, b); }

BddId BddManager::apply(Op op, BddId a, BddId b) {
    // Terminal cases.
    switch (op) {
        case Op::kAnd:
            if (a == kBddFalse || b == kBddFalse) return kBddFalse;
            if (a == kBddTrue) return b;
            if (b == kBddTrue) return a;
            if (a == b) return a;
            break;
        case Op::kOr:
            if (a == kBddTrue || b == kBddTrue) return kBddTrue;
            if (a == kBddFalse) return b;
            if (b == kBddFalse) return a;
            if (a == b) return a;
            break;
        default:
            UCP_ASSERT(false);
    }
    if (a > b) std::swap(a, b);  // both ops are commutative

    BddId cached;
    const std::uint64_t key = dd_cache_key(static_cast<std::uint8_t>(op), a, b);
    if (cache_.lookup(key, cached)) return cached;

    const std::uint32_t va = var_of(a), vb = var_of(b);
    const std::uint32_t v = std::min(va, vb);
    const BddId a0 = va == v ? nodes_[a].lo : a;
    const BddId a1 = va == v ? nodes_[a].hi : a;
    const BddId b0 = vb == v ? nodes_[b].lo : b;
    const BddId b1 = vb == v ? nodes_[b].hi : b;
    cached = make(v, apply(op, a0, b0), apply(op, a1, b1));
    cache_store(key, cached);
    return cached;
}

}  // namespace ucp::zdd
