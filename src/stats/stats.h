// sv::stats: always-on, near-zero-cost observability counters.
//
// Motivation: the paper's claims are quantitative, and attributing a
// throughput delta requires visibility into the structural events behind it
// (splits, lazy orphan merges, seqlock retries, HP scans -- the same
// internals Jiffy and the B-skiplist line of work instrument). Every counter
// here is a per-thread, cache-line-padded relaxed atomic, so the hot path
// pays one TLS read plus one uncontended fetch_add; aggregation happens only
// when a snapshot is requested.
//
// Architecture:
//   * Registry     -- one per instrumented component instance (a map, a
//                     baseline). Owns per-thread counter Blocks, which are
//                     retained after thread exit so snapshot() aggregates
//                     work from detached/exited threads too.
//   * Scope        -- RAII: installed at the top of each map operation, it
//                     binds the calling thread's Block for that Registry as
//                     the thread's *current* block. Layers that cannot see
//                     the owning map (SequenceLock, VectorMap, the hazard
//                     pointer domain) count through the current block, so
//                     their events are attributed to the map instance whose
//                     operation is on the stack.
//   * count(c, n)  -- increments counter c in the current block; a no-op
//                     when no Scope is active (e.g. standalone unit tests of
//                     the primitives).
//   * Snapshot     -- plain aggregated values; subtractable, so benches can
//                     report per-phase deltas (prefill vs measured run).
//
// Build modes: compiled with SV_STATS_ENABLED=1 (default; CMake option
// SV_STATS=ON) the enabled implementation is used; with SV_STATS=OFF every
// type collapses to an empty stub and count() to an empty inline function,
// so instrumented call sites compile to nothing. Both implementations are
// always *defined* (namespaces sv::stats::enabled / sv::stats::disabled) so
// the stubs stay compile-tested in every build (tests/stats_test.cc
// static_asserts they are zero-size).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hw.h"

#if !defined(SV_STATS_ENABLED)
#define SV_STATS_ENABLED 1
#endif

namespace sv::stats {

// Counter catalog. Names (for JSON/report output) are in kCounterNames and
// must stay in sync; docs/OBSERVABILITY.md documents the semantics of each.
enum class Counter : std::uint32_t {
  // Operation outcomes (counted by the map at operation completion).
  kLookupHit,
  kLookupMiss,
  kInsertNew,
  kInsertDup,
  kRemoveHit,
  kRemoveMiss,
  kUpdateHit,
  kUpdateMiss,
  kOrderedNavOps,     // floor/ceiling/first/last calls
  kRangeOps,          // range_for_each / range_transform calls
  kRangeKeysVisited,  // mappings visited by range operations
  kOpRestarts,        // speculative attempts abandoned and retried

  // Structural events (skip vector internals).
  kCapacitySplits,  // orphan-creating splits of a full chunk (Fig. 3d)
  kTowerSplits,     // per-layer splits performed by tall inserts
  kOrphanMerges,    // lazy merges of orphaned right siblings (Fig. 3f->3d)
  kStealAbove,      // index-layer suffix steals during tower construction
  kFreezes,         // successful tryFreeze transitions
  kThaws,           // freeze aborted and undone (thaw)

  // Synchronization (counted inside sync/sequence_lock.h).
  kSeqlockReadRetries,     // read_begin() spins while the word was locked
  kSeqlockAcquireRetries,  // acquire() retries (failed CAS or locked/frozen)

  // Chunk mechanics (counted inside vectormap/vector_map.h).
  // kScalarFallbacks counts every chunk search and kSimdSearches is always
  // 0: both keep the names of a removed vector-kernel path because
  // svbench's vectormap.simd_frac and searches_per_op read them.
  kChunkShiftedSlots,  // element slots moved by sorted-layout insert/erase
  kSimdSearches,
  kScalarFallbacks,

  // Reclamation (counted inside reclaim/).
  kHpScanPasses,   // hazard-pointer scan passes
  kRetired,        // nodes handed to the reclaimer
  kReclaimed,      // nodes actually freed
  kEpochAdvances,  // successful global epoch advances (EBR)

  // Allocation (counted inside alloc/).
  // kPoolHits is always 0 and kPoolMisses counts every node and record
  // allocation; both keep the names of a removed slab pool because
  // svbench's alloc.node_allocs_per_kop sums them.
  kPoolHits,
  kPoolMisses,
  kLiveBytes,  // net gauge: +bytes on alloc, two's-complement on free

  // Multiversioning (snapshots + atomic batches; docs/SNAPSHOTS.md).
  kSnapshotScans,         // range_for_each_at / snapshot() scans started
  kSnapshotChunksLive,    // chunks resolved from live state (mod <= v)
  kSnapshotChunksChain,   // chunks resolved from a version-chain record
  kSnapshotChunkRetries,  // per-chunk re-reads (validate fail / next moved)
  kSnapshotScanRestarts,  // full scan-phase restarts (invariant: stays 0)
  kVersionRecords,        // version-chain records created
  kVersionRecordsFreed,   // version-chain records pruned/freed
  kPreimagesSkipped,      // pre-image pushes proven unneeded (no pin >= m)
  kVersionFolds,          // chains folded at a split/merge boundary
  kBatchCommits,          // apply_batch committed atomically
  kBatchAborts,           // apply_batch lock-acquisition passes aborted
  kBatchKeys,             // ops applied by committed batches

  // Transaction layer (src/txn/; docs/TRANSACTIONS.md). kTxnLockFail is
  // counted inside the shared lock manager, so apply_batch conflicts bump
  // it alongside kBatchAborts.
  kTxnCommits,   // sv::txn transactions committed
  kTxnAborts,    // Txn::commit attempts that aborted (conflict/validation)
  kTxnLockFail,  // NO_WAIT lock-acquisition passes that failed
  kTxnRetries,   // transaction body re-executions by txn::run
  kTxnLockHops,  // data chunks the lock pass stepped over laterally

  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

// snake_case names, index-aligned with Counter; used verbatim as JSON keys.
inline constexpr std::array<std::string_view, kCounterCount> kCounterNames = {
    "lookup_hit",
    "lookup_miss",
    "insert_new",
    "insert_dup",
    "remove_hit",
    "remove_miss",
    "update_hit",
    "update_miss",
    "ordered_nav_ops",
    "range_ops",
    "range_keys_visited",
    "op_restarts",
    "capacity_splits",
    "tower_splits",
    "orphan_merges",
    "steal_above",
    "freezes",
    "thaws",
    "seqlock_read_retries",
    "seqlock_acquire_retries",
    "chunk_shifted_slots",
    "simd_searches",
    "scalar_fallbacks",
    "hp_scan_passes",
    "retired",
    "reclaimed",
    "epoch_advances",
    "pool_hits",
    "pool_misses",
    "live_bytes",
    "snapshot_scans",
    "snapshot_chunks_live",
    "snapshot_chunks_chain",
    "snapshot_chunk_retries",
    "snapshot_scan_restarts",
    "version_records",
    "version_records_freed",
    "preimages_skipped",
    "version_folds",
    "batch_commits",
    "batch_aborts",
    "batch_keys",
    "txn_commits",
    "txn_aborts",
    "txn_lock_fail",
    "txn_retries",
    "txn_lock_hops",
};

inline constexpr std::string_view counter_name(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

// Aggregated counter values; a plain value type, safe to copy around and
// subtract (per-phase deltas).
struct Snapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  Snapshot& operator+=(const Snapshot& o) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) values[i] += o.values[i];
    return *this;
  }
  // Per-phase delta. Counters are monotonic per block, but blocks may be
  // adopted between snapshots; clamp at zero rather than wrap.
  Snapshot operator-(const Snapshot& o) const noexcept {
    Snapshot d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      d.values[i] = values[i] >= o.values[i] ? values[i] - o.values[i] : 0;
    }
    return d;
  }
  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto v : values) t += v;
    return t;
  }
  // fn(std::string_view name, std::uint64_t value) for every counter.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < kCounterCount; ++i) fn(kCounterNames[i],
                                                       values[i]);
  }
};

// ---- Enabled implementation -------------------------------------------------

namespace enabled {

class Registry {
 public:
  // One cache line (or more) per attached thread; counters are written by
  // exactly one thread with relaxed atomics and read by snapshot().
  struct alignas(kCacheLineSize) Block {
    std::array<std::atomic<std::uint64_t>, kCounterCount> c{};
    Block* next = nullptr;  // intrusive list, append-only

    void add(Counter ctr, std::uint64_t n) noexcept {
      c[static_cast<std::size_t>(ctr)].fetch_add(n,
                                                 std::memory_order_relaxed);
    }
  };

  Registry() noexcept : serial_(next_serial()) {}

  ~Registry() {
    Block* b = head_.load(std::memory_order_acquire);
    while (b != nullptr) {
      Block* next = b->next;
      delete b;
      b = next;
    }
  }

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // This thread's block for this registry, attaching on first use. Blocks
  // are never freed before the registry, so counts from threads that have
  // since exited (or detached) stay visible to snapshot(). The TLS cache is
  // keyed by a process-unique serial: a stale entry for a destroyed
  // registry can never be confused with a live one.
  Block* local() {
    struct Entry {
      std::uint64_t serial;
      Block* block;
    };
    thread_local std::vector<Entry> cache;
    for (const Entry& e : cache) {
      if (e.serial == serial_) return e.block;
    }
    auto* b = new Block();
    Block* old_head = head_.load(std::memory_order_relaxed);
    do {
      b->next = old_head;
    } while (!head_.compare_exchange_weak(old_head, b,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    cache.push_back({serial_, b});
    return b;
  }

  // Aggregate every block. Safe to call concurrently with increments
  // (relaxed reads of monotonic relaxed counters: the result is some valid
  // interleaving, never torn).
  Snapshot snapshot() const {
    Snapshot s;
    for (const Block* b = head_.load(std::memory_order_acquire); b != nullptr;
         b = b->next) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        s.values[i] += b->c[i].load(std::memory_order_relaxed);
      }
    }
    return s;
  }

  std::size_t attached_blocks() const noexcept {
    std::size_t n = 0;
    for (const Block* b = head_.load(std::memory_order_acquire); b != nullptr;
         b = b->next) {
      ++n;
    }
    return n;
  }

 private:
  static std::uint64_t next_serial() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<Block*> head_{nullptr};
  const std::uint64_t serial_;
};

// The thread's current attribution target. Layers with no reference to the
// owning component (sequence locks, chunk containers, reclamation domains)
// count through this pointer; it is installed by the Scope of the map
// operation on the stack.
inline Registry::Block*& current_block() noexcept {
  thread_local Registry::Block* current = nullptr;
  return current;
}

class Scope {
 public:
  explicit Scope(Registry& r) noexcept
      : prev_(current_block()) {
    current_block() = r.local();
  }
  ~Scope() { current_block() = prev_; }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Registry::Block* prev_;
};

inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (Registry::Block* b = current_block()) b->add(c, n);
}

}  // namespace enabled

// ---- Disabled implementation (zero-size stubs) ------------------------------

namespace disabled {

struct Registry {
  Snapshot snapshot() const noexcept { return {}; }
  std::size_t attached_blocks() const noexcept { return 0; }
};

struct Scope {
  explicit Scope(Registry&) noexcept {}
};

inline void count(Counter, std::uint64_t = 1) noexcept {}

}  // namespace disabled

// ---- Mode selection ---------------------------------------------------------

#if SV_STATS_ENABLED
using Registry = enabled::Registry;
using Scope = enabled::Scope;
using enabled::count;
inline constexpr bool kEnabled = true;
#else
using Registry = disabled::Registry;
using Scope = disabled::Scope;
using disabled::count;
inline constexpr bool kEnabled = false;
#endif

}  // namespace sv::stats
