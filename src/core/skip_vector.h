// SkipVectorMap: the paper's primary contribution (Listings 1-4).
//
// A concurrent ordered map structured like a skip list whose index and data
// layers are flattened into chunks ("vectors") of target size T (capacity
// 2T). Each node carries a sequence lock with isOrphan/isFrozen flags;
// traversals are speculative hand-over-hand read sections, mutations take
// write locks bottom-up after a top-down freeze phase, and unlinked nodes
// are reclaimed through a pluggable Reclaimer policy (hazard pointers for
// SV-HP, leaking for SV-Leak, immediate free for sequential use). The
// policy decides when a chunk is freed; every free goes through the map's
// one node allocator (alloc::MallocNodeAllocator), which keeps the map's
// byte count (docs/MEMORY.md).
//
// Template parameters:
//   K, V           key/value; must be trivially copyable and lock-free as
//                  std::atomic (speculative readers require it; see
//                  DESIGN.md §3.2). 64-bit keys/values as in the paper.
//   Reclaimer      sv::reclaim::{HazardReclaimer, LeakReclaimer,
//                  ImmediateReclaimer, EpochReclaimer}. A retirement carries
//                  an owned deleter (reclaim/deleter.h) that frees the chunk
//                  through this map's allocator.
//
// Every point operation reaches its key's data chunk by one speculative
// descent from the top head (Listing 2); locate() is that descent for the
// read-only and in-place callers.
//
// Chunk layouts (Fig. 7b) are chosen per layer at runtime: every chunk is
// born with Config::index_layout or Config::data_layout (layer_layout())
// and keeps that immutable tag (vectormap/layout.h) for its lifetime.
//
// Deviations from the listings (all argued in DESIGN.md §3): head nodes use
// an is_head flag plus an explicit head_down pointer instead of a reserved
// sentinel key (so the full key domain is usable), and next == nullptr
// replaces the top sentinel. Where the paper's "K is minimum of a non-orphan
// node" checks appear, head nodes are exempt (a head's conceptual minimum is
// -inf, so a user key being its vector minimum implies nothing about upper
// layers).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <iostream>
#include <iterator>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/node_layout.h"
#include "common/hw.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/mvcc.h"
#include "debug/audit.h"
#include "debug/fault_inject.h"
#include "reclaim/epoch.h"
#include "reclaim/reclaimer.h"
#include "stats/stats.h"
#include "sync/backoff.h"
#include "sync/sequence_lock.h"
#include "txn/lock_mgr.h"
#include "vectormap/vector_map.h"

namespace sv::core {

template <class K, class V, class Reclaimer = reclaim::HazardReclaimer>
class SkipVectorMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);
  static_assert(std::atomic<K>::is_always_lock_free &&
                    std::atomic<V>::is_always_lock_free,
                "speculative readers require lock-free atomic elements; "
                "store larger values behind a pointer");

  using Lock = sync::SequenceLock;
  using Word = Lock::Word;
  using Ctx = typename Reclaimer::ThreadCtx;
  using VRecord = mvcc::VersionRecord<K, V>;
  using RecordCtx = reclaim::EpochDomain::ThreadCtx;

  // The transaction layer's privileged bridge (txn/lock_mgr.h): the NO_WAIT
  // 2PL growing phase and the shared commit pass live in sv::txn and reach
  // the map's private navigation/mutation primitives through this friend.
  template <class M>
  friend struct ::sv::txn::MapAccess;

  // ---- Node layout ---------------------------------------------------------

  struct NodeBase {
    Lock lock;
    std::atomic<NodeBase*> next{nullptr};
    NodeBase* const head_down;  // heads only: head of the layer below
    const std::uint32_t capacity;
    const std::uint8_t layer;  // 0 = data layer
    const bool is_head;
    // Multiversioning (data layer only; docs/SNAPSHOTS.md): the commit
    // version at which the live contents became valid, and the chain of
    // immutable pre-image records (newest first, strictly descending
    // version). Both are written only under this node's write lock.
    std::atomic<std::uint64_t> mod_version{0};
    std::atomic<VRecord*> vchain{nullptr};

    NodeBase(NodeBase* down, std::uint32_t cap, std::uint8_t lyr, bool head,
             bool orphan) noexcept
        : lock(orphan), head_down(down), capacity(cap), layer(lyr),
          is_head(head) {}
  };

  template <class P>
  struct NodeT : NodeBase {
    vectormap::VectorMap<K, P> vec;
    NodeT(std::atomic<K>* keys, std::atomic<P>* vals, NodeBase* down,
          std::uint32_t cap, std::uint8_t lyr, bool head, bool orphan,
          vectormap::Layout layout) noexcept
        : NodeBase(down, cap, lyr, head, orphan),
          vec(keys, vals, cap, layout) {}
  };

  using IndexNode = NodeT<NodeBase*>;
  using DataNode = NodeT<V>;

 public:
  using key_type = K;
  using mapped_type = V;

  explicit SkipVectorMap(Config config = Config{})
      : config_(config) {
    config_.validate();
    heads_.resize(config_.layer_count);
    heads_[0] = alloc_node<DataNode, V>(config_.data_capacity(), nullptr, 0,
                                        /*head=*/true, /*orphan=*/false);
    for (std::uint32_t l = 1; l < config_.layer_count; ++l) {
      heads_[l] = alloc_node<IndexNode, NodeBase*>(
          config_.index_capacity(), heads_[l - 1], static_cast<std::uint8_t>(l),
          /*head=*/true, /*orphan=*/false);
    }
    head_ = heads_[config_.layer_count - 1];
  }

  ~SkipVectorMap() {
    // Quiescent teardown: free every node still linked into a layer. Nodes
    // already unlinked are owned by the reclaimer (freed by the hazard
    // domain's destructor, or intentionally leaked by LeakReclaimer).
    for (NodeBase* h : heads_) {
      NodeBase* n = h;
      while (n != nullptr) {
        NodeBase* next = n->next.load(std::memory_order_relaxed);
        free_node(n);
        n = next;
      }
    }
  }

  SkipVectorMap(const SkipVectorMap&) = delete;
  SkipVectorMap& operator=(const SkipVectorMap&) = delete;

  const Config& config() const noexcept { return config_; }
  Reclaimer& reclaimer() noexcept { return reclaimer_; }

  // Node and record allocations and live bytes, precise regardless of
  // SV_STATS; see alloc/allocator.h.
  alloc::AllocatorStats allocator_stats() const { return alloc_.stats(); }

  // ---- Lookup (Listing 2) --------------------------------------------------

  std::optional<V> lookup(K k) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    Trav at;
    std::optional<V> result = lookup_at(ctx, k, at);
    ctx.drop_all();
    return result;
  }

  bool contains(K k) { return lookup(k).has_value(); }

  // ---- Insert (Listing 3) --------------------------------------------------

  // Inserts the mapping k -> v; returns false (no change) if k is present.
  bool insert(K k, V v) { return insert_impl(k, v, random_height()); }

#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
  // Test-only (fault-injection builds): insert with a forced tower height,
  // so scenario tests can build exact structural shapes deterministically
  // instead of fishing for them through the random height generator.
  bool insert_with_height(K k, V v, std::uint32_t height) {
    return insert_impl(k, v, std::min(height, config_.layer_count - 1));
  }
#endif

 private:
  bool insert_impl(K k, V v, std::uint32_t height) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    InsertState st;
    for (;;) {
      bool result = false;
      if (try_insert(ctx, k, v, height, st, result)) {
        if (result) approx_size_.fetch_add(1, std::memory_order_relaxed);
        stats::count(result ? stats::Counter::kInsertNew
                            : stats::Counter::kInsertDup);
        return result;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

 public:
  // ---- Remove (Listing 4) --------------------------------------------------

  // Removes k; returns false (no change) if absent.
  bool remove(K k) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      bool result = false;
      if (try_remove(ctx, k, result)) {
        if (result) approx_size_.fetch_sub(1, std::memory_order_relaxed);
        stats::count(result ? stats::Counter::kRemoveHit
                            : stats::Counter::kRemoveMiss);
        return result;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // ---- Update in place -----------------------------------------------------

  // Replaces the value mapped by k; returns false if k is absent.
  bool update(K k, V v) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      bool result = false;
      if (try_update(ctx, k, v, result)) {
        stats::count(result ? stats::Counter::kUpdateHit
                            : stats::Counter::kUpdateMiss);
        return result;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // ---- Ordered navigation ----------------------------------------------------
  //
  // Point queries that exploit key order (the reason to prefer an ordered
  // map over a hash map, §I): floor/ceiling and first/last. All are
  // linearizable, read-only, and use the same speculative traversal as
  // Lookup; last() descends the rightmost spine in O(log n).

  using Entry = std::optional<std::pair<K, V>>;

  // Largest mapping with key <= k, if any.
  Entry floor(K k) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      Entry out;
      if (try_floor(ctx, k, out)) {
        stats::count(stats::Counter::kOrderedNavOps);
        return out;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // Smallest mapping with key >= k, if any.
  Entry ceiling(K k) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      Entry out;
      if (try_ceiling(ctx, k, out)) {
        stats::count(stats::Counter::kOrderedNavOps);
        return out;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // Smallest / largest mapping in the map, if any.
  Entry first() {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      Entry out;
      Trav t;
      t.node = heads_[0];
      t.slot = 0;
      ctx.protect(t.slot, t.node);
      t.ver = t.node->lock.read_begin();
      if (try_scan_forward(ctx, t, K{}, /*use_k=*/false, out)) {
        stats::count(stats::Counter::kOrderedNavOps);
        return out;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  Entry last() {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      Entry out;
      if (try_last(ctx, out)) {
        stats::count(stats::Counter::kOrderedNavOps);
        return out;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // ---- Range operations (§V-B, Fig. 8) --------------------------------------
  //
  // Two-phase locking over the data layer: write-lock every data node
  // intersecting [lo, hi] left to right, apply, release. Linearizable (and
  // serializable against all other operations), as the paper's lock-based
  // design makes trivial.

  // Mutating range query: fn(K, V) -> V is applied exactly once to each
  // mapping in [lo, hi] (ascending node order; unspecified order within a
  // chunk); the returned value is stored back. Returns mappings visited.
  template <class Fn>
  std::size_t range_transform(K lo, K hi, Fn&& fn) {
    return range_locked(lo, hi, /*mutating=*/true,
                        [&](DataNode* n) -> std::size_t {
                          return n->vec.transform_range(lo, hi, fn);
                        });
  }

  // Read-only range query, same locking discipline (serializable).
  // fn(K, V) is invoked in ascending key order. Returns count visited.
  template <class Fn>
  std::size_t range_for_each(K lo, K hi, Fn&& fn) {
    return range_locked(lo, hi, /*mutating=*/false,
                        [&](DataNode* n) -> std::size_t {
                          return n->vec.for_each_ordered(lo, hi, fn);
                        });
  }

  // Non-atomic bulk erase: removes every mapping in [lo, hi] one key at a
  // time. Each individual removal is linearizable, but the range as a whole
  // is not atomic (concurrent inserts into [lo, hi] may survive). An atomic
  // version is future work the paper defers to [8]. Returns keys removed.
  std::size_t erase_range(K lo, K hi) {
    std::vector<K> victims;
    range_for_each(lo, hi, [&](K k, V) { victims.push_back(k); });
    std::size_t removed = 0;
    for (K k : victims) removed += remove(k) ? 1 : 0;
    return removed;
  }

  // Quiescent: remove every mapping, retaining the layer skeleton. Nodes
  // are freed directly (no other thread may touch the map concurrently).
  void clear() {
    for (NodeBase* h : heads_) {
      NodeBase* n = h->next.load(std::memory_order_relaxed);
      while (n != nullptr) {
        NodeBase* next = n->next.load(std::memory_order_relaxed);
        free_node(n);
        n = next;
      }
      h->next.store(nullptr, std::memory_order_relaxed);
      if (h->layer) {
        as_index(h)->vec.clear();
      } else {
        as_data(h)->vec.clear();
        free_chain(h->vchain.exchange(nullptr, std::memory_order_relaxed));
        h->mod_version.store(version_reserve(), std::memory_order_relaxed);
      }
      h->lock.acquire();  // bump the version: invalidate stale observers
      h->lock.release();
    }
    approx_size_.store(0, std::memory_order_relaxed);
  }

  // Quiescent forward iteration in ascending key order (STL interop).
  // Invalidated by any mutation; intended for single-threaded phases.
  class const_iterator {
   public:
    using value_type = std::pair<K, V>;
    using reference = const value_type&;
    using pointer = const value_type*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;

    reference operator*() const { return buf_[i_]; }
    pointer operator->() const { return &buf_[i_]; }

    const_iterator& operator++() {
      if (++i_ >= buf_.size()) advance_node();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const {
      return node_ == o.node_ && i_ == o.i_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class SkipVectorMap;
    explicit const_iterator(const NodeBase* node) : node_(node) {
      fill();
      if (buf_.empty()) advance_node();
    }

    void advance_node() {
      do {
        node_ = node_ ? node_->next.load(std::memory_order_relaxed) : nullptr;
        fill();
      } while (node_ != nullptr && buf_.empty());
      i_ = 0;
      if (node_ == nullptr) buf_.clear();
    }

    void fill() {
      buf_.clear();
      i_ = 0;
      if (node_ == nullptr) return;
      static_cast<const DataNode*>(node_)->vec.for_each_ordered(
          [&](K k, V v) { buf_.emplace_back(k, v); });
    }

    const NodeBase* node_ = nullptr;
    std::vector<value_type> buf_;
    std::size_t i_ = 0;
  };

  const_iterator begin() const { return const_iterator(heads_[0]); }
  const_iterator end() const { return const_iterator(); }

  // ---- Snapshots and atomic batches (Jiffy-style multiversioning) ------------
  //
  // docs/SNAPSHOTS.md. Every committed mutation bumps a global commit
  // version; while a snapshot is registered, writers preserve per-chunk
  // pre-image records on a short version chain before overwriting live
  // state. A reader pinned at version v resolves each data chunk either
  // from its live contents (unchanged since v) or from the newest chain
  // record at-or-below v -- it never restarts against writers.

  using BatchOp = mvcc::BatchOp<K, V>;

  // A pinned read version. While a view is live, writers preserve every
  // chunk state it may need; destroying (or moving from) the view releases
  // the pin. When the registry is full (kSlots concurrent snapshots) the
  // view is unversioned and readers fall back to the locked range path --
  // still linearizable, just not wait-free.
  class SnapshotView {
   public:
    SnapshotView() = default;
    SnapshotView(SnapshotView&& o) noexcept
        : map_(o.map_), slot_(o.slot_), version_(o.version_) {
      o.map_ = nullptr;
      o.slot_ = -1;
    }
    SnapshotView& operator=(SnapshotView&& o) noexcept {
      if (this != &o) {
        release_slot();
        map_ = o.map_;
        slot_ = o.slot_;
        version_ = o.version_;
        o.map_ = nullptr;
        o.slot_ = -1;
      }
      return *this;
    }
    SnapshotView(const SnapshotView&) = delete;
    SnapshotView& operator=(const SnapshotView&) = delete;
    ~SnapshotView() { release_slot(); }

    // The pinned commit version (0 for an unversioned fallback view).
    std::uint64_t version() const noexcept { return version_; }
    // False when the registry was full and this view reads via locks.
    bool versioned() const noexcept { return slot_ >= 0; }

   private:
    friend class SkipVectorMap;
    void release_slot() noexcept {
      if (map_ != nullptr && slot_ >= 0) map_->snaps_.release(slot_);
      map_ = nullptr;
      slot_ = -1;
    }
    SkipVectorMap* map_ = nullptr;
    int slot_ = -1;
    std::uint64_t version_ = 0;
  };

  // Pin the current commit version. The claim-then-load order makes the
  // registration visible to every writer whose commit exceeds the pinned
  // version (see mvcc::SnapshotRegistry).
  SnapshotView snapshot_at() {
    SnapshotView view;
    view.map_ = this;
    const std::uint64_t pre = commit_version_.load(std::memory_order_seq_cst);
    view.slot_ = snaps_.try_claim(pre);
    if (view.slot_ < 0) return view;  // registry full: unversioned fallback
    view.version_ = commit_version_.load(std::memory_order_seq_cst);
    snaps_.refine(view.slot_, view.version_);
    return view;
  }

  // Read-only scan of [lo, hi] at the view's pinned version, fn(K, V) in
  // ascending key order. Wait-free against writers: the data-layer walk
  // never restarts (kSnapshotScanRestarts stays 0); an in-flight commit on
  // a chunk costs a bounded wait, and a concurrent split/merge a bounded
  // per-chunk re-read. Returns mappings visited.
  template <class Fn>
  std::size_t range_for_each_at(const SnapshotView& view, K lo, K hi,
                                Fn&& fn) {
    if (!view.versioned() || view.map_ != this) {
      return range_for_each(lo, hi, std::forward<Fn>(fn));
    }
    stats::Scope stats_scope(stats_);
    stats::count(stats::Counter::kSnapshotScans);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    RecordCtx walks = record_epochs_.thread_ctx();
    sync::Backoff backoff;
    // The cursor (and visited count) live OUTSIDE the retry loop: a
    // speculative-descent failure re-positions but never re-emits, so the
    // scan's output stays append-only across retries.
    std::size_t visited = 0;
    bool emitted = false;
    K last{};
    for (;;) {
      if (try_range_at(ctx, walks, view.version_, lo, hi, fn, visited,
                       emitted, last)) {
        if (visited > 0) {
          stats::count(stats::Counter::kRangeKeysVisited, visited);
        }
        return visited;
      }
      // Only the index-layer positioning can fail (speculative descent);
      // the versioned data-layer emission itself never restarts.
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // Consistent copy of every mapping in [lo, hi]: a linearizable snapshot
  // taken at a single commit version (the capability the paper contrasts
  // against non-linearizable range queries in competing skip lists, §V-B),
  // wait-free against concurrent writers via the version chains.
  std::vector<std::pair<K, V>> snapshot(K lo, K hi) {
    SnapshotView view = snapshot_at();
    std::vector<std::pair<K, V>> out;
    range_for_each_at(view, lo, hi,
                      [&](K k, V v) { out.emplace_back(k, v); });
    return out;
  }

  // Atomic multi-key batch (Jiffy's bulk update): all ops become visible at
  // one commit version -- no reader, scan, or snapshot observes a partially
  // applied batch. Puts upsert, removes erase; ops on the same key apply in
  // their given order. Each op's `applied` field is set to whether it
  // changed the key's presence (new-key put / present-key remove); returns
  // the number of such ops. Chunk locks are claimed left-to-right with
  // no-wait upgrades (abort, back off, retry), so batches interleave safely
  // with each other, with range 2PL, and with single-key writers.
  std::size_t apply_batch(std::span<BatchOp> ops) {
    if (ops.empty()) return 0;
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    // The whole 2PL engine -- ascending NO_WAIT floor locks, towered-remove
    // demotes, single-version commit, bounded backoff between passes --
    // lives in the shared transaction layer (txn/lock_mgr.h): a batch is a
    // write-only transaction with an empty read set.
    const auto out =
        txn::LockMgr<SkipVectorMap>::run_batch(*this, ctx, ops.data(),
                                               ops.size());
    if (out.delta != 0) {
      approx_size_.fetch_add(out.delta, std::memory_order_relaxed);
    }
    stats::count(stats::Counter::kBatchCommits);
    if (out.applied > 0) {
      stats::count(stats::Counter::kBatchKeys, out.applied);
    }
    return out.applied;
  }
  // Thin forwarders over the span implementation.
  std::size_t apply_batch(BatchOp* ops, std::size_t n) {
    return apply_batch(std::span<BatchOp>(ops, n));
  }
  std::size_t apply_batch(std::vector<BatchOp>& ops) {
    return apply_batch(std::span<BatchOp>(ops.data(), ops.size()));
  }

  // Current global commit version (diagnostics/tests).
  std::uint64_t commit_version() const noexcept {
    return commit_version_.load(std::memory_order_relaxed);
  }

  // ---- Bulk construction (quiescent) -----------------------------------------

  // Populate an EMPTY map from strictly ascending unique (key, value)
  // pairs: data chunks packed to targetDataVectorSize, index layers built
  // bottom-up, every chunk exactly at its target fill. O(n), versus
  // O(n log n) repeated insert. Throws std::logic_error if the map is not
  // empty, std::invalid_argument if the input is not strictly ascending.
  //
  // Nodes created at the top layer (beyond the head's capacity) are marked
  // orphans: like capacity-split siblings (Fig. 3d) they have no parent
  // entry, and the invariant checks rely on that.
  void bulk_load(const std::vector<std::pair<K, V>>& sorted) {
    if (size_approx() != 0 ||
        heads_[0]->next.load(std::memory_order_relaxed) != nullptr ||
        node_size(heads_[0]) != 0) {
      throw std::logic_error("bulk_load requires an empty map");
    }
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (!(sorted[i - 1].first < sorted[i].first)) {
        throw std::invalid_argument("bulk_load input must strictly ascend");
      }
    }
    if (sorted.empty()) return;
    const std::uint32_t top = config_.layer_count - 1;

    // Entries to link at the current layer: (min key, node below).
    std::vector<std::pair<K, NodeBase*>> entries;

    // Data layer.
    {
      const std::uint32_t fill = config_.target_data_vector_size;
      NodeBase* tail = heads_[0];
      for (std::size_t i = 0; i < sorted.size(); i += fill) {
        const std::size_t n = std::min<std::size_t>(fill, sorted.size() - i);
        const bool orphan = (top == 0);  // single-layer maps: see above
        auto* node =
            alloc_node<DataNode, V>(config_.data_capacity(), nullptr, 0,
                                    /*head=*/false, orphan);
        for (std::size_t j = 0; j < n; ++j) {
          node->vec.insert(sorted[i + j].first, sorted[i + j].second);
        }
        tail->next.store(node, std::memory_order_release);
        tail = node;
        if (top > 0) entries.emplace_back(sorted[i].first, node);
      }
    }

    // Index layers, bottom-up.
    for (std::uint32_t layer = 1; layer <= top && !entries.empty(); ++layer) {
      const std::uint32_t fill = config_.target_index_vector_size;
      std::vector<std::pair<K, NodeBase*>> next_entries;
      NodeBase* tail = heads_[layer];
      std::size_t i = 0;
      if (layer == top) {
        // The head absorbs what fits; the rest become orphan chunks.
        auto* head = as_index(heads_[layer]);
        while (i < entries.size() && !head->vec.full()) {
          head->vec.insert(entries[i].first, entries[i].second);
          ++i;
        }
      }
      for (; i < entries.size();) {
        const std::size_t n =
            std::min<std::size_t>(fill, entries.size() - i);
        auto* node = alloc_node<IndexNode, NodeBase*>(
            config_.index_capacity(), nullptr,
            static_cast<std::uint8_t>(layer),
            /*head=*/false, /*orphan=*/(layer == top));
        for (std::size_t j = 0; j < n; ++j) {
          node->vec.insert(entries[i + j].first, entries[i + j].second);
        }
        tail->next.store(node, std::memory_order_release);
        tail = node;
        if (layer < top) next_entries.emplace_back(entries[i].first, node);
        i += n;
      }
      entries.swap(next_entries);
    }
    approx_size_.store(static_cast<std::int64_t>(sorted.size()),
                       std::memory_order_relaxed);
  }

  // ---- Serialization (quiescent) ----------------------------------------------
  //
  // Minimal binary snapshot format: magic, endianness marker, element
  // count, then (key, value) pairs in ascending order. load() into an empty
  // map uses bulk_load, so a restored map is perfectly packed. Payload
  // stays host-endian (a snapshot is a local artifact, not a wire format),
  // but the marker makes a foreign-endian file a clean error instead of
  // silently-garbled keys, and the count is validated against the stream
  // length before any allocation, so a corrupt header cannot drive an OOM.

  static constexpr std::uint64_t kSnapshotMagic = 0x53564543544F5232ULL;
  static constexpr std::uint16_t kEndianMark = 0x0102;

  void save(std::ostream& out) const {
    const std::uint64_t n = size_approx();
    write_pod(out, kSnapshotMagic);
    write_pod(out, kEndianMark);
    write_pod(out, n);
    std::uint64_t written = 0;
    for_each([&](K k, V v) {
      write_pod(out, k);
      write_pod(out, v);
      ++written;
    });
    if (written != n) {
      throw std::logic_error("save() requires quiescence (count drifted)");
    }
  }

  // Map must be empty. Throws std::runtime_error on a malformed stream: bad
  // magic, an endianness mismatch, or a count exceeding the stream's actual
  // payload (the previous format trusted the on-disk count and could be
  // made to reserve arbitrary memory from a 16-byte file).
  void load(std::istream& in) {
    std::uint64_t magic = 0, n = 0;
    std::uint16_t endian = 0;
    read_pod(in, magic);
    if (!in || magic != kSnapshotMagic) {
      throw std::runtime_error("bad snapshot magic");
    }
    read_pod(in, endian);
    if (!in || endian != kEndianMark) {
      throw std::runtime_error(
          endian == 0x0201
              ? "snapshot endianness mismatch (saved on a foreign-endian host)"
              : "bad snapshot endianness marker");
    }
    read_pod(in, n);
    if (!in) throw std::runtime_error("truncated snapshot");
    constexpr std::uint64_t kPairBytes = sizeof(K) + sizeof(V);
    // Bound n by the bytes actually present before reserving. Seekable
    // streams give an exact remaining-byte count; for non-seekable streams
    // skip the pre-validation (the per-pair read check below still rejects
    // truncation) but cap the speculative reserve.
    std::uint64_t reserve_n = n;
    const std::istream::pos_type here = in.tellg();
    if (here != std::istream::pos_type(-1)) {
      in.seekg(0, std::ios::end);
      const std::istream::pos_type end = in.tellg();
      in.seekg(here);
      if (in && end != std::istream::pos_type(-1)) {
        const std::uint64_t remaining =
            static_cast<std::uint64_t>(end - here);
        if (n > remaining / kPairBytes) {
          throw std::runtime_error(
              "snapshot count exceeds stream payload (corrupt header)");
        }
      }
    } else {
      in.clear();  // tellg(-1) sets failbit on some streams
      reserve_n = std::min<std::uint64_t>(n, 1u << 20);
    }
    std::vector<std::pair<K, V>> data;
    data.reserve(reserve_n);
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      read_pod(in, k);
      read_pod(in, v);
      if (!in) throw std::runtime_error("truncated snapshot");
      data.emplace_back(k, v);
    }
    bulk_load(data);
  }

  // ---- Introspection (quiescent unless stated) ------------------------------

  // Approximate element count (maintained with relaxed counters; exact when
  // quiescent).
  std::size_t size_approx() const noexcept {
    const auto s = approx_size_.load(std::memory_order_relaxed);
    return s < 0 ? 0 : static_cast<std::size_t>(s);
  }

  // Quiescent: iterate every mapping in ascending key order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const NodeBase* n = heads_[0];
    while (n != nullptr) {
      static_cast<const DataNode*>(n)->vec.for_each_ordered(fn);
      n = n->next.load(std::memory_order_relaxed);
    }
  }

  // Per-instance event counter registry (src/stats/stats.h). Every public
  // operation installs a stats::Scope for this registry, so counts from all
  // layers touched on its behalf (seqlock retries, chunk shifts, reclamation)
  // are attributed to this map. Snapshot at any time with
  // `stats_registry().snapshot()`; compiles to a zero-size stub under
  // SV_STATS=OFF.
  stats::Registry& stats_registry() const noexcept { return stats_; }

  struct LayerStats {
    std::size_t nodes = 0;
    std::size_t orphans = 0;
    std::size_t elements = 0;
    double avg_fill = 0.0;  // elements / capacity over non-head nodes
  };
  struct Stats {
    std::vector<LayerStats> layers;  // [0] = data layer
    std::size_t bytes = 0;           // linked nodes only
  };

  // Quiescent: per-layer shape statistics.
  Stats stats() const {
    Stats s;
    s.layers.resize(config_.layer_count);
    for (std::uint32_t l = 0; l < config_.layer_count; ++l) {
      auto& ls = s.layers[l];
      double fill_sum = 0;
      std::size_t fill_n = 0;
      for (const NodeBase* n = heads_[l]; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        ls.nodes++;
        ls.elements += node_size(const_cast<NodeBase*>(n));
        if (Lock::is_orphan(n->lock.load_relaxed())) ls.orphans++;
        if (!n->is_head) {
          fill_sum += static_cast<double>(
                          node_size(const_cast<NodeBase*>(n))) /
                      n->capacity;
          fill_n++;
        }
        s.bytes += node_bytes(n);
      }
      ls.avg_fill = fill_n ? fill_sum / static_cast<double>(fill_n) : 0.0;
    }
    return s;
  }

  // Quiescent: full structural audit. Walks every layer and collects every
  // invariant violation (up to max_violations) into a structured report
  // instead of stopping at the first or asserting -- a broken map yields a
  // complete picture of *how* it is broken. See debug/audit.h for codes.
  debug::AuditReport validate_structure(std::size_t max_violations = 64) const {
    using debug::AuditCode;
    debug::AuditReport rep;
    auto flag = [&](AuditCode code, std::uint32_t layer, std::string detail) {
      if (rep.violations.size() >= max_violations) {
        rep.truncated = true;
        return;
      }
      rep.violations.push_back({code, layer, std::move(detail)});
    };
    // Pass 1 -- per-layer invariants: quiescence of every lock word, orphan
    // flag placement, occupancy bounds (chunk size <= capacity = 2T),
    // intra-chunk key uniqueness, and inter-chunk key ordering.
    for (std::uint32_t l = 0; l < config_.layer_count; ++l) {
      bool have_prev_max = false;
      K prev_max{};
      for (const NodeBase* n = heads_[l]; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        rep.nodes_checked++;
        auto* nn = const_cast<NodeBase*>(n);
        const std::uint32_t sz = node_size(nn);
        const Word w = n->lock.load_relaxed();
        if (Lock::is_locked(w) || Lock::is_frozen(w))
          flag(AuditCode::kLockedWhileQuiescent, l,
               "node locked/frozen while quiescent");
        if (n->is_head && Lock::is_orphan(w))
          flag(AuditCode::kHeadOrphan, l, "head marked orphan");
        if (!n->is_head && !Lock::is_orphan(w) && sz == 0)
          flag(AuditCode::kEmptyNonOrphan, l, "empty non-orphan node");
        if (sz > n->capacity)
          flag(AuditCode::kOverCapacity, l,
               "size " + std::to_string(sz) + " > capacity " +
                   std::to_string(n->capacity));
        if (sz > 0) {
          const K mn = node_min_key(nn);
          const K mx = node_max_key(nn);
          if (mx < mn) flag(AuditCode::kChunkKeyOrder, l, "max < min");
          if (have_prev_max && !(prev_max < mn))
            flag(AuditCode::kInterChunkOrder, l,
                 "left sibling max >= right sibling min");
          prev_max = mx;
          have_prev_max = true;
          if (!check_unique_keys(nn))
            flag(AuditCode::kDuplicateKeys, l, "duplicate keys in a chunk");
        }
      }
    }
    // Pass 2 -- down pointers: each index entry (key, down) targets a
    // non-orphan node linked in the layer below whose minimum key equals the
    // entry key; orphans below have no parent; non-orphan non-head nodes
    // have exactly one.
    for (std::uint32_t l = config_.layer_count; l-- > 1;) {
      std::vector<const NodeBase*> below;
      for (const NodeBase* n = heads_[l - 1]; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        below.push_back(n);
      }
      std::vector<int> parent_count(below.size(), 0);
      auto index_of_node = [&](const NodeBase* target) -> std::ptrdiff_t {
        for (std::size_t i = 0; i < below.size(); ++i)
          if (below[i] == target) return static_cast<std::ptrdiff_t>(i);
        return -1;
      };
      for (const NodeBase* n = heads_[l]; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        static_cast<const IndexNode*>(n)->vec.for_each(
            [&](K k, NodeBase* down) {
              rep.entries_checked++;
              const std::ptrdiff_t i = index_of_node(down);
              if (i < 0) {
                flag(AuditCode::kDanglingDown, l,
                     "down pointer to a node not linked below");
                return;
              }
              parent_count[static_cast<std::size_t>(i)]++;
              auto* dn = const_cast<NodeBase*>(below[i]);
              if (Lock::is_orphan(dn->lock.load_relaxed())) {
                flag(AuditCode::kOrphanWithParent, l,
                     "down pointer to orphan");
              } else if (node_size(dn) == 0 || node_min_key(dn) != k) {
                flag(AuditCode::kEntryChildMismatch, l,
                     "down target min != entry key");
              }
            });
        if (n->is_head && n->head_down != heads_[l - 1]) {
          flag(AuditCode::kHeadDownMismatch, l, "head_down mismatch");
        }
      }
      for (std::size_t i = 0; i < below.size(); ++i) {
        const NodeBase* n = below[i];
        const bool orphan = Lock::is_orphan(n->lock.load_relaxed());
        if (n->is_head) {
          if (parent_count[i] != 0)
            flag(AuditCode::kHeadHasParent, l - 1, "head has a parent entry");
        } else if (orphan) {
          if (parent_count[i] != 0)
            flag(AuditCode::kOrphanWithParent, l - 1,
                 "orphan has a parent entry");
        } else if (parent_count[i] != 1) {
          flag(AuditCode::kParentCountWrong, l - 1,
               "non-orphan has " + std::to_string(parent_count[i]) +
                   " parent entries");
        }
      }
    }
    // Pass 3 -- every key in an index layer is the minimum of its child
    // chunk (and hence, transitively, exists in the data layer).
    for (std::uint32_t l = 1; l < config_.layer_count; ++l) {
      for (const NodeBase* n = heads_[l]; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        static_cast<const IndexNode*>(n)->vec.for_each(
            [&](K k, NodeBase* down) {
              if (node_size(down) == 0 || node_min_key(down) != k)
                flag(AuditCode::kIndexKeyMissingBelow, l,
                     "index key missing below");
            });
      }
    }
    return rep;
  }

  // Quiescent: check every structural invariant. Returns true if the
  // structure is well formed; otherwise false with a diagnostic in *err.
  // (Thin wrapper over validate_structure for existing callers.)
  bool validate(std::string* err = nullptr) const {
    const debug::AuditReport rep = validate_structure();
    if (rep.ok()) return true;
    if (err != nullptr) *err = rep.to_string();
    return false;
  }

#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
  // Test-only (fault-injection builds): deliberately violate one structural
  // invariant on a quiesced map, so negative tests can prove the auditor
  // actually catches broken structures. Returns false when the current shape
  // has no site to corrupt (e.g. no index entries yet).
  enum class DebugCorruption {
    kOrphanFlagOnChild,   // -> kOrphanWithParent (+ follow-on parent-count)
    kIndexKeyOffByOne,    // -> kEntryChildMismatch / kIndexKeyMissingBelow
    kClearNonHeadChunk,   // -> kEmptyNonOrphan (+ entry-child mismatch above)
  };
  bool debug_corrupt(DebugCorruption c) {
    switch (c) {
      case DebugCorruption::kOrphanFlagOnChild: {
        for (std::uint32_t l = config_.layer_count; l-- > 1;) {
          for (NodeBase* n = heads_[l]; n != nullptr;
               n = n->next.load(std::memory_order_relaxed)) {
            NodeBase* child = nullptr;
            as_index(n)->vec.for_each([&](K, NodeBase* down) {
              if (child == nullptr) child = down;
            });
            if (child != nullptr) {
              child->lock.acquire();
              child->lock.set_orphan_locked(true);
              child->lock.release();
              return true;
            }
          }
        }
        return false;
      }
      case DebugCorruption::kIndexKeyOffByOne: {
        for (std::uint32_t l = config_.layer_count; l-- > 1;) {
          for (NodeBase* n = heads_[l]; n != nullptr;
               n = n->next.load(std::memory_order_relaxed)) {
            bool have = false;
            K k{};
            as_index(n)->vec.for_each([&](K key, NodeBase*) {
              if (!have) {
                k = key;
                have = true;
              }
            });
            if (have) {
              NodeBase* down = nullptr;
              as_index(n)->vec.erase(k, &down);
              as_index(n)->vec.insert(k + K{1}, down);
              return true;
            }
          }
        }
        return false;
      }
      case DebugCorruption::kClearNonHeadChunk: {
        for (NodeBase* n = heads_[0]; n != nullptr;
             n = n->next.load(std::memory_order_relaxed)) {
          if (!n->is_head && !Lock::is_orphan(n->lock.load_relaxed()) &&
              node_size(n) > 0) {
            as_data(n)->vec.clear();
            return true;
          }
        }
        return false;
      }
    }
    return false;
  }
#endif  // SV_FAULT_INJECTION

 private:
  // ---- Allocation ----------------------------------------------------------
  //
  // All layout arithmetic lives in alloc::NodeLayout; allocation and
  // deallocation go through alloc_. Deallocation is *sized*: the byte count
  // is recomputed from the node header, so the map's live bytes are exact
  // without any per-block metadata.

  template <class NodeType, class P>
  static constexpr alloc::NodeLayout node_layout(std::uint32_t cap) {
    return alloc::NodeLayout::of<NodeType, std::atomic<K>, std::atomic<P>>(
        cap);
  }

  // The layout every chunk of `layer` is born with and keeps.
  vectormap::Layout layer_layout(std::uint8_t layer) const noexcept {
    return layer ? config_.index_layout : config_.data_layout;
  }

  template <class NodeType, class P>
  NodeType* alloc_node(std::uint32_t cap, NodeBase* down, std::uint8_t layer,
                       bool head, bool orphan) {
    const alloc::NodeLayout l = node_layout<NodeType, P>(cap);
    void* mem = alloc_.allocate(l.bytes);
    auto* keys = reinterpret_cast<std::atomic<K>*>(static_cast<char*>(mem) +
                                                   l.keys_off);
    auto* vals = reinterpret_cast<std::atomic<P>*>(static_cast<char*>(mem) +
                                                   l.vals_off);
    for (std::uint32_t i = 0; i < cap; ++i) {
      new (keys + i) std::atomic<K>();
      new (vals + i) std::atomic<P>();
    }
    return new (mem) NodeType(keys, vals, down, cap, layer, head, orphan,
                              layer_layout(layer));
  }

  void free_node(NodeBase* n) {
    // Node types are trivially destructible aggregates of atomics. A data
    // chunk owns its version chain: by the time a retired node is actually
    // reclaimed no reader can reach it (hazard/epoch protection), so the
    // chain records die with it.
    free_chain(n->vchain.exchange(nullptr, std::memory_order_relaxed));
    alloc_.deallocate(n, node_bytes(n));
  }

  // ---- Version-chain storage (docs/SNAPSHOTS.md) -----------------------------

  VRecord* alloc_record(std::uint64_t version, std::uint32_t count,
                        VRecord* next) {
    const std::size_t bytes = VRecord::bytes_for(count);
    auto* rec = static_cast<VRecord*>(alloc_.allocate(bytes));
    rec->version = version;
    rec->next.store(next, std::memory_order_relaxed);
    rec->count = count;
    rec->bytes = static_cast<std::uint32_t>(bytes);
    stats::count(stats::Counter::kVersionRecords);
    return rec;
  }

  void free_record(VRecord* rec) {
    stats::count(stats::Counter::kVersionRecordsFreed);
    alloc_.deallocate(rec, rec->bytes);
  }

  void free_chain(VRecord* rec) {
    while (rec != nullptr) {
      VRecord* next = rec->next.load(std::memory_order_relaxed);
      free_record(rec);
      rec = next;
    }
  }

  // Owned deleter handed to the reclaimer: routes a retired node back
  // through the owning map's allocator (reclaim/deleter.h).
  static void reclaim_node(void* p, void* self) {
    static_cast<SkipVectorMap*>(self)->free_node(static_cast<NodeBase*>(p));
  }
  // Owned deleter for a run of pruned records (retire_records).
  static void reclaim_records(void* p, void* self) {
    static_cast<SkipVectorMap*>(self)->free_chain(static_cast<VRecord*>(p));
  }

  template <class T>
  static void write_pod(std::ostream& out, const T& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <class T>
  static void read_pod(std::istream& in, T& v) {
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
  }

  static std::size_t node_bytes(const NodeBase* n) {
    return n->layer ? node_layout<IndexNode, NodeBase*>(n->capacity).bytes
                    : node_layout<DataNode, V>(n->capacity).bytes;
  }

  // ---- Typed access helpers -------------------------------------------------

  static IndexNode* as_index(NodeBase* n) noexcept {
    return static_cast<IndexNode*>(n);
  }
  static DataNode* as_data(NodeBase* n) noexcept {
    return static_cast<DataNode*>(n);
  }

  static std::uint32_t node_size(NodeBase* n) noexcept {
    return n->layer ? as_index(n)->vec.size() : as_data(n)->vec.size();
  }
  static K node_min_key(NodeBase* n) noexcept {
    return n->layer ? as_index(n)->vec.min_key() : as_data(n)->vec.min_key();
  }
  static K node_max_key(NodeBase* n) noexcept {
    return n->layer ? as_index(n)->vec.max_key() : as_data(n)->vec.max_key();
  }
  static bool check_unique_keys(NodeBase* n) {
    std::vector<K> ks;
    auto collect = [&](K k, auto) { ks.push_back(k); };
    if (n->layer) {
      as_index(n)->vec.for_each(collect);
    } else {
      as_data(n)->vec.for_each(collect);
    }
    std::sort(ks.begin(), ks.end());
    return std::adjacent_find(ks.begin(), ks.end()) == ks.end();
  }
  static void node_merge_from(NodeBase* dst, NodeBase* src) noexcept {
    if (dst->layer) {
      as_index(dst)->vec.merge_from(as_index(src)->vec);
    } else {
      as_data(dst)->vec.merge_from(as_data(src)->vec);
    }
  }

  std::uint32_t merge_threshold(std::uint8_t layer) const noexcept {
    return layer ? config_.merge_threshold_index()
                 : config_.merge_threshold_data();
  }

  // ---- Height generation (§III-A.2) -----------------------------------------

  std::uint32_t random_height() {
    thread_local Xoshiro256 rng = [] {
      static std::atomic<std::uint64_t> counter{0x5eed};
      return Xoshiro256(counter.fetch_add(0x9e3779b97f4a7c15ULL,
                                          std::memory_order_relaxed));
    }();
    const std::uint32_t top = config_.layer_count - 1;
    if (top == 0) return 0;
    // P(height == 0) = (T_D - 1) / T_D; for T_D == 1 fall back to 1/2 so the
    // degenerate (classic skip list) configuration keeps a sane shape.
    const std::uint64_t td = config_.target_data_vector_size;
    if (td > 1) {
      if (rng.next_below(td) != 0) return 0;
    } else {
      if (rng.next_below(2) != 0) return 0;
    }
    // Geometric with p = 1/T_I from 1 to layer_count - 1.
    const std::uint64_t ti = config_.target_index_vector_size > 1
                                 ? config_.target_index_vector_size
                                 : 2;
    std::uint32_t h = 1;
    while (h < top && rng.next_below(ti) == 0) ++h;
    return h;
  }

  // ---- Speculative traversal (shared by Listings 2-4) ------------------------

  struct Trav {
    NodeBase* node = nullptr;
    Word ver = 0;
    int slot = 0;  // hazard-pointer slot currently protecting `node`
  };

  // RAII scope marking one logical operation for the reclaimer. Epoch-based
  // policies pin the calling thread's epoch for the duration (covering every
  // speculative read, including across restarts); no-op for the others.
  struct OpGuard {
    explicit OpGuard(Ctx& c) noexcept : ctx(c) { ctx.begin_op(); }
    ~OpGuard() { ctx.end_op(); }
    OpGuard(const OpGuard&) = delete;
    OpGuard& operator=(const OpGuard&) = delete;
    Ctx& ctx;
  };
  // RAII scope of one version-chain walk in record_epochs_: records that a
  // concurrent prune detaches stay allocated until it ends (maybe_prune).
  struct ChainWalk {
    explicit ChainWalk(RecordCtx& c) noexcept : ctx(c) { ctx.begin_op(); }
    ~ChainWalk() { ctx.leave(); }
    ChainWalk(const ChainWalk&) = delete;
    ChainWalk& operator=(const ChainWalk&) = delete;
    RecordCtx& ctx;
  };
  static int other_slot(int s) noexcept { return s ^ 1; }

  // Prefetch on chunk arrival ("Skiplists with Foresight", PAPERS.md):
  // every step onto a chunk of `layer` -- right or down, in descents,
  // scans, the txn lock pass and a range's growing phase -- requests the
  // chunk's header line and every line of its key array as soon as the
  // pointer is loaded, before the seqlock validation (or lock) that proves
  // it current. The size read, the binary search and the stop check on
  // keys[size-1] then find their lines already in flight instead of
  // waiting on one dependent miss after another. The key array is sized by
  // the layer's configured capacity through alloc::NodeLayout, because the
  // chunk's own `capacity` sits in the header line that has not arrived
  // yet. The hint stops after kMaxArrivalPrefetch bytes: a default chunk
  // (T = 32) needs 10 lines, and hinting all 66 lines of a T_D = 256 chunk,
  // whose binary search reads only a few of them, cost Fig. 7a 15%. Value
  // lines are not hinted: hinting the whole node cost svbench point-hot
  // 3.4%, and searching out the value run a range visit reads in order to
  // hint it cost scan more than it saved. Measurements: EXPERIMENTS.md,
  // "Chunk arrival prefetch". A prefetch never faults, so hinting a stale
  // or already-retired node is harmless.
  static constexpr std::size_t kMaxArrivalPrefetch = 16 * kCacheLineSize;

  void prefetch_chunk(const NodeBase* n, std::uint8_t layer) const noexcept {
    const std::size_t keys_end =
        layer ? node_layout<IndexNode, NodeBase*>(config_.index_capacity())
                    .vals_off
              : node_layout<DataNode, V>(config_.data_capacity()).vals_off;
    const std::size_t end = std::min(keys_end, kMaxArrivalPrefetch);
    const char* p = reinterpret_cast<const char*>(n);  // nodes start a line
    for (std::size_t off = 0; off < end; off += kCacheLineSize) {
      prefetch_read(p + off);
    }
  }

  // Opens a speculative read of n. Point operations wait out a writer
  // (read_begin). kNoWait is the transaction lock pass (txn/lock_mgr.h),
  // which already holds chunk locks: waiting on another pass's lock could
  // deadlock the two, so a locked word fails the read instead.
  template <bool kNoWait>
  static Word read_open(const NodeBase* n) noexcept {
    if constexpr (kNoWait) {
      return n->lock.read_begin_no_wait();
    } else {
      return n->lock.read_begin();
    }
  }

  // Under kNoWait a locked head yields t.node == nullptr.
  template <bool kNoWait = false>
  Trav begin_traversal(Ctx& ctx) {
    Trav t;
    t.node = head_;
    t.slot = 0;
    ctx.protect(t.slot, t.node);  // heads are immortal, but keep it uniform
    t.ver = read_open<kNoWait>(t.node);
    if (kNoWait && Lock::is_locked(t.ver)) t.node = nullptr;
    return t;
  }

  // TraverseRight (Listing 2 lines 23-48). Moves t rightward until t.node is
  // the floor node for k in its layer, merging empty orphans (any caller)
  // and under-threshold orphans (mutators). Returns false -> restart; under
  // kNoWait also when a node it must read is write-locked.
  template <bool kNoWait = false>
  bool traverse_right(Ctx& ctx, Trav& t, K k, bool mutator) {
    for (;;) {
      const std::uint32_t sz = node_size(t.node);
      if (sz != 0 && !(k > node_max_key(t.node))) break;  // speculative stop
      NodeBase* next = t.node->next.load(std::memory_order_acquire);
      if (next == nullptr) break;  // no right sibling (the paper's top sentinel)
      prefetch_chunk(next, t.node->layer);
      const int nslot = other_slot(t.slot);
      ctx.protect(nslot, next);
      if (!t.node->lock.validate(t.ver)) return false;  // also validates HP
      const Word next_ver = read_open<kNoWait>(next);
      if (kNoWait && Lock::is_locked(next_ver)) return false;

      // Uncommon case: merge/remove nodes left behind by prior Removes
      // (lines 28-39). Empty orphans are merged by any operation;
      // under-threshold orphans only by Insert/Remove.
      const std::uint32_t next_sz = node_size(next);
      if (Lock::is_orphan(next_ver) &&
          (next_sz == 0 ||
           (mutator && sz + next_sz < merge_threshold(t.node->layer))) &&
          sz + next_sz <= t.node->capacity) {
        if (!t.node->lock.try_upgrade(t.ver)) return false;
        if (!next->lock.try_upgrade(next_ver)) {
          t.node->lock.release();
          return false;
        }
        SV_FAULT_POINT(debug::Point::kMerge);  // both write locks held
        stats::count(stats::Counter::kOrphanMerges);
        // Data-layer merges commit a state change: fold the version chains
        // (union records land on the surviving left node; the drained
        // orphan keeps its own pre-image for readers already past us) and
        // stamp both nodes so snapshot readers pinned below c resolve from
        // the chains, not the post-merge live contents.
        std::uint64_t merge_ver = 0;
        if (t.node->layer == 0) {
          merge_ver = version_reserve();
          if (snapshots_active()) fold_merge(t.node, next);
        }
#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
        // Mutation site (checker-teeth testing only): when fired, unlink the
        // orphan WITHOUT absorbing its elements -- every mapping it held
        // silently vanishes. See docs/LINEARIZABILITY.md.
        if (!SV_FAULT_SHOULD_FAIL(debug::Point::kMutDropMerge))
#endif
        node_merge_from(t.node, next);
        t.node->next.store(next->next.load(std::memory_order_relaxed),
                           std::memory_order_release);
        if (t.node->layer == 0) {
          next->mod_version.store(merge_ver, std::memory_order_release);
          t.node->mod_version.store(merge_ver, std::memory_order_release);
        }
        // Poison the retired node's successor pointer. A versioned reader
        // standing on `next` (it holds a hazard pointer, so the node
        // itself stays allocated) must not chase the frozen successor: the
        // successor could be merged away and freed later, and a frozen
        // pointer can never fail a recheck. The sentinel turns that stale
        // advance into an explicit re-position (resolve_chunk_at).
        next->next.store(retired_next(), std::memory_order_release);
        // Release before retiring: `next` is already unlinked while both
        // locks are held, so no new reader can reach it, and an immediate
        // reclaimer frees it inside retire().
        next->lock.release();
        ctx.retire(next, &reclaim_node, this);
        t.ver = t.node->lock.release();
        ctx.drop(nslot);
        continue;  // re-evaluate from the (possibly grown) current node
      }

      if (next_sz == 0 || k < node_min_key(next)) {
        // Either k belongs here, or speculation saw an inconsistent next;
        // verify the basis for stopping (line 41).
        if (!next->lock.validate(next_ver)) return false;
        if (next_sz == 0) return false;  // empty non-orphan: racing state
        ctx.drop(nslot);
        break;
      }
      if (!t.node->lock.validate(t.ver)) return false;
      ctx.drop(t.slot);
      t = Trav{next, next_ver, nslot};
    }
    return true;
  }

  // ExchangeDown (Listing 2 lines 17-22): hand-over-hand move one layer down.
  template <bool kNoWait = false>
  bool exchange_down(Ctx& ctx, Trav& t, NodeBase* down) {
    prefetch_chunk(down, static_cast<std::uint8_t>(t.node->layer - 1));
    const int nslot = other_slot(t.slot);
    ctx.protect(nslot, down);
    if (!t.node->lock.validate(t.ver)) return false;
    const Word down_ver = read_open<kNoWait>(down);
    if (kNoWait && Lock::is_locked(down_ver)) return false;
    if (!t.node->lock.validate(t.ver)) return false;
    ctx.drop(t.slot);
    t = Trav{down, down_ver, nslot};
    return true;
  }

  // Resolve the downward pointer for k out of index node t.node. Returns
  // false on inconsistent speculation (caller restarts). Sets *exact if the
  // chunk holds k itself.
  bool index_down(Trav& t, K k, NodeBase** down, bool* exact) {
    const auto fle = as_index(t.node)->vec.find_le(k);
    if (fle.found) {
      *down = fle.val;
      *exact = (fle.key == k);
      return true;
    }
    if (t.node->is_head) {
      *down = t.node->head_down;
      *exact = false;
      return true;
    }
    return false;  // non-head with no key <= k: inconsistent speculation
  }

  // The descent of Listing 2: from the top head down every layer to k's
  // floor chunk in the data layer, merging only empty orphans on the way.
  // Returns false -> restart. On success t is that chunk, protected by
  // t.slot, with the word its read section opened at; the caller reads or
  // upgrades from there. Insert, remove and tower demotion write their own
  // descents: they freeze or stop on index layers and merge as mutators.
  bool locate(Ctx& ctx, K k, Trav& t) {
    t = begin_traversal(ctx);
    while (t.node->layer > 0) {
      if (!traverse_right(ctx, t, k, /*mutator=*/false)) return false;
      NodeBase* down = nullptr;
      bool exact = false;
      if (!index_down(t, k, &down, &exact)) return false;
      if (!exchange_down(ctx, t, down)) return false;
    }
    return traverse_right(ctx, t, k, /*mutator=*/false);
  }

  // ---- Lookup implementation -------------------------------------------------

  // lookup()'s body, shared with the transaction layer's pinned read
  // (txn/lock_mgr.h). On return `at` is the data chunk that answered and
  // the word its read validated at; at.slot still protects the chunk, and
  // the caller drops it.
  std::optional<V> lookup_at(Ctx& ctx, K k, Trav& at) {
    sync::Backoff backoff;
    for (;;) {
      std::optional<V> result;
      if (try_lookup(ctx, k, result, at)) {
        stats::count(result ? stats::Counter::kLookupHit
                            : stats::Counter::kLookupMiss);
        return result;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  // On success hands back its final position: k's floor data chunk,
  // protected, with the word the read validated at.
  bool try_lookup(Ctx& ctx, K k, std::optional<V>& result, Trav& at) {
    if (!locate(ctx, k, at)) return false;
    result = as_data(at.node)->vec.get(k);
    return at.node->lock.validate(at.ver);  // linearization point
  }

  // ---- Insert implementation -------------------------------------------------

  struct InsertState {
    std::array<NodeBase*, Config::kMaxLayers> prevs{};
    // Layers [lowest_frozen, height] are frozen by us; kMaxLayers + 1 means
    // "nothing frozen yet".
    std::uint32_t lowest_frozen = Config::kMaxLayers + 1;
#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
    // mut-skip-freeze fired: run the data-layer write with no seqlock at
    // all (checker-teeth testing only; see try_insert).
    bool mut_unlocked = false;
#endif
  };

  void thaw_all(InsertState& st, std::uint32_t height) {
    if (st.lowest_frozen > height) return;
    for (std::uint32_t l = st.lowest_frozen; l <= height; ++l) {
      SV_FAULT_POINT(debug::Point::kThaw);  // node still frozen here
      st.prevs[l]->lock.thaw();
      stats::count(stats::Counter::kThaws);
    }
    st.lowest_frozen = Config::kMaxLayers + 1;
  }

  bool try_insert(Ctx& ctx, K k, V v, std::uint32_t height, InsertState& st,
                  bool& result) {
    const std::uint32_t top = config_.layer_count - 1;
    Trav t;
    std::uint32_t layer;
    bool resumed_at_checkpoint = false;

    if (st.lowest_frozen <= height && st.lowest_frozen >= 1) {
      // Checkpoint resume (Listing 3 line 14): the lowest node we froze
      // cannot have changed; restart the descent from it.
      SV_FAULT_POINT(debug::Point::kResume);
      layer = st.lowest_frozen;
      t.node = st.prevs[layer];
      t.slot = 0;
      ctx.protect(t.slot, t.node);
      t.ver = t.node->lock.load_relaxed();
      resumed_at_checkpoint = true;
    } else if (st.lowest_frozen == 0) {
      // Data layer already frozen: go straight to the write phase.
      return insert_write_phase(ctx, k, v, height, st, result);
    } else {
      t = begin_traversal(ctx);
      layer = top;
    }

    for (; layer >= 1; --layer) {
      if (!resumed_at_checkpoint) {
        if (!traverse_right(ctx, t, k, /*mutator=*/true)) return false;
        if (layer <= height) {
          if (SV_FAULT_SHOULD_FAIL(debug::Point::kFreeze)) return false;
          if (!t.node->lock.try_freeze(t.ver)) return false;
          stats::count(stats::Counter::kFreezes);
          t.ver = t.node->lock.load_relaxed();
          st.prevs[layer] = t.node;
          st.lowest_frozen = layer;  // checkpoint
        }
      }
      resumed_at_checkpoint = false;

      NodeBase* down = nullptr;
      bool exact = false;
      if (!index_down(t, k, &down, &exact)) return false;
      if (exact) {
        // k already present in an index layer -> the map contains k.
        if (!t.node->lock.validate(t.ver)) return false;
        thaw_all(st, height);
        ctx.drop_all();
        result = false;
        return true;
      }
      if (!exchange_down(ctx, t, down)) return false;
    }

    // Data layer.
    if (!traverse_right(ctx, t, k, /*mutator=*/true)) return false;
    if (SV_FAULT_SHOULD_FAIL(debug::Point::kFreeze)) return false;
#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
    // Mutation site (checker-teeth testing only): when fired, skip the
    // data-layer freeze entirely -- the write phase then mutates the chunk
    // with NO seqlock transition, so concurrent readers validate
    // successfully against torn mid-shift states and concurrent writers'
    // upgrades succeed on a chunk being rewritten. Ordinary (height 0)
    // inserts only, so index layers keep their legitimate freezes.
    if (height == 0 && SV_FAULT_SHOULD_FAIL(debug::Point::kMutSkipFreeze)) {
      st.prevs[0] = t.node;
      st.lowest_frozen = 0;
      st.mut_unlocked = true;
      return insert_write_phase(ctx, k, v, height, st, result);
    }
#endif
    if (!t.node->lock.try_freeze(t.ver)) return false;
    stats::count(stats::Counter::kFreezes);
    st.prevs[0] = t.node;
    st.lowest_frozen = 0;
    return insert_write_phase(ctx, k, v, height, st, result);
  }

  bool insert_write_phase(Ctx& ctx, K k, V v, std::uint32_t height,
                          InsertState& st, bool& result) {
    // Everything in prevs[0..height] is frozen by us: reads below are
    // stable, and upgrade_frozen cannot fail. This phase never restarts.
    if (as_data(st.prevs[0])->vec.contains(k)) {
#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
      // mut-skip-freeze froze nothing: thawing would overwrite another
      // writer's lock word and can leave the chunk locked forever.
      if (st.mut_unlocked) st.lowest_frozen = Config::kMaxLayers + 1;
#endif
      thaw_all(st, height);
      ctx.drop_all();
      result = false;
      return true;
    }

    // The insert commits: reserve its version now (the data chunk is frozen
    // by us, so the reserve-before-mutate ordering holds) and decide once
    // whether pre-images must be preserved for registered snapshots.
    const std::uint64_t c = version_reserve();
    const bool preserve = snapshots_active();

    // Build new nodes bottom-up for layers [0, height), each containing k
    // plus every element of prevs[layer] greater than k (Listing 3 32-39).
    NodeBase* below = nullptr;
    for (std::uint32_t layer = 0; layer < height; ++layer) {
      NodeBase* prev = st.prevs[layer];
      prev->lock.upgrade_frozen();
      NodeBase* fresh;
      if (layer == 0) {
        if (preserve) push_preimage(prev);
        auto* dn = alloc_split_node<DataNode, V>(as_data(prev)->vec, k,
                                                 config_.data_capacity(), 0);
        as_data(prev)->vec.steal_greater(k, dn->vec);
        dn->vec.insert(k, v);
        if (preserve) fold_split(prev, dn, k);
        dn->mod_version.store(c, std::memory_order_relaxed);
        prev->mod_version.store(c, std::memory_order_release);
        fresh = dn;
      } else {
        auto* in = alloc_split_node<IndexNode, NodeBase*>(
            as_index(prev)->vec, k, config_.index_capacity(),
            static_cast<std::uint8_t>(layer));
        SV_FAULT_POINT(debug::Point::kStealAbove);
        stats::count(stats::Counter::kStealAbove);
        as_index(prev)->vec.steal_greater(k, in->vec);
        in->vec.insert(k, below);
        fresh = in;
      }
      fresh->next.store(prev->next.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      SV_FAULT_POINT(debug::Point::kTowerSplit);  // split built, not published
      prev->next.store(fresh, std::memory_order_release);
      prev->lock.release();
      stats::count(stats::Counter::kTowerSplits);
      below = fresh;
    }

    // At the chosen height, k joins an existing chunk (lines 40-42),
    // splitting it at capacity first (creating an orphan, Fig. 3d).
    NodeBase* prev = st.prevs[height];
#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
    if (st.mut_unlocked) {
      // mut-skip-freeze (see try_insert): replay the split's element
      // migration with NO lock transition at all. The chunk's upper half
      // is erased, invisible for the duration of the nested point
      // (pyield@/pdelay@mut-skip-freeze widen the window), then restored
      // -- concurrent readers validate successfully against precisely the
      // intermediate state the freeze protocol exists to hide. Everything
      // is an in-place atomic slot write: no next-pointer edits, no
      // allocation, no retirement, so the injected bug is purely a
      // linearizability violation, never a memory-safety one.
      auto* dn = as_data(prev);
      std::vector<std::pair<K, V>> all;
      dn->vec.for_each([&](K dk, V dv) { all.emplace_back(dk, dv); });
      std::sort(all.begin(), all.end());
      std::vector<std::pair<K, V>> hidden(all.begin() + (all.size() + 1) / 2,
                                          all.end());
      for (const auto& [hk, hv] : hidden) dn->vec.erase(hk);
      SV_FAULT_POINT(debug::Point::kMutSkipFreeze);
      for (const auto& [hk, hv] : hidden) dn->vec.insert(hk, hv);
      dn->vec.insert(k, v);  // best effort: a full chunk drops the insert
      st.lowest_frozen = Config::kMaxLayers + 1;
      st.mut_unlocked = false;
      ctx.drop_all();
      result = true;
      return true;
    }
#endif
    prev->lock.upgrade_frozen();
    if (height == 0) {
      if (preserve) push_preimage(prev);
      insert_at_top<DataNode, V>(as_data(prev), k, v, c, preserve);
      prev->mod_version.store(c, std::memory_order_release);
    } else {
      insert_at_top<IndexNode, NodeBase*>(as_index(prev), k, below);
    }
    prev->lock.release();
    st.lowest_frozen = Config::kMaxLayers + 1;
    ctx.drop_all();
    result = true;
    return true;
  }

  // Allocate the right-hand node for a split at key k. Normally the layer's
  // configured capacity suffices; when the donor is a head whose every
  // element exceeds k, the stolen suffix plus k can exceed it, so size up
  // (rare; keeps the "newNode's first element is k" invariant intact).
  template <class NodeType, class P, class Vec>
  NodeType* alloc_split_node(const Vec& donor, K k, std::uint32_t cap,
                             std::uint8_t layer) {
    std::uint32_t needed = 1;
    donor.for_each([&](K dk, auto) { needed += (dk > k) ? 1 : 0; });
    if (needed > cap) cap = needed;
    return alloc_node<NodeType, P>(cap, nullptr, layer, /*head=*/false,
                                   /*orphan=*/false);
  }

  template <class NodeType, class P>
  void insert_at_top(NodeType* node, K k, P payload,
                     std::uint64_t commit_ver = 0, bool preserve = false) {
    if (node->vec.full()) {
      // Capacity split: the new right sibling is an orphan (no parent entry
      // exists for it; a later merge may fold it back, Fig. 3d) with the
      // donor's capacity. The sibling must be fully written *before* it is
      // published via next -- it has no lock protection against
      // speculative readers until then.
      auto* sib = alloc_node<NodeType, P>(node->capacity, nullptr, node->layer,
                                          /*head=*/false, /*orphan=*/true);
      stats::count(stats::Counter::kCapacitySplits);
      const K sib_min = node->vec.split_half(sib->vec);
      const bool goes_right = k >= sib_min;
      if (goes_right) {
        const bool ok = sib->vec.insert(k, payload);
        assert(ok);
        (void)ok;
      }
      if constexpr (std::is_same_v<NodeType, DataNode>) {
        // Data-layer split: re-partition the version chain across the new
        // boundary and stamp the sibling before it becomes reachable.
        if (preserve) fold_split(node, sib, sib_min);
        sib->mod_version.store(commit_ver, std::memory_order_relaxed);
      }
      sib->next.store(node->next.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      SV_FAULT_POINT(debug::Point::kSplit);  // orphan built, not yet published
      node->next.store(sib, std::memory_order_release);
      if (goes_right) return;
    }
    const bool ok = node->vec.insert(k, payload);
    assert(ok);
    (void)ok;
  }

  // ---- Remove implementation -------------------------------------------------

  bool try_remove(Ctx& ctx, K k, bool& result) {
    Trav t = begin_traversal(ctx);
    bool found_in_index = false;

    while (t.node->layer > 0) {
      if (!traverse_right(ctx, t, k, /*mutator=*/true)) return false;
      NodeBase* down = nullptr;
      bool exact = false;
      if (!index_down(t, k, &down, &exact)) return false;
      if (exact) {
        // k lives in this index layer. If k is the minimum of a non-orphan,
        // non-head node, k must also exist one layer up -- but we did not
        // see it there, so a concurrent Insert is mid-flight (Listing 4
        // line 13): restart. Heads are exempt (conceptual minimum -inf).
        if (!t.node->is_head && !Lock::is_orphan(t.ver) &&
            node_min_key(t.node) == k) {
          return false;
        }
        if (!t.node->lock.try_upgrade(t.ver)) return false;
        found_in_index = true;
        break;
      }
      if (!exchange_down(ctx, t, down)) return false;
    }

    if (!found_in_index) {
      // Common case: k is in no index layer (lines 23-34).
      if (!traverse_right(ctx, t, k, /*mutator=*/true)) return false;
      if (!t.node->is_head && !Lock::is_orphan(t.ver) &&
          node_size(t.node) > 0 && node_min_key(t.node) == k) {
        return false;  // racing Insert placed k here with height > 0
      }
      if (!t.node->lock.try_upgrade(t.ver)) return false;
#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
      // Mutation site (checker-teeth testing only): when fired, release the
      // seqlock BEFORE performing the erase. The release bumps the version,
      // so speculative readers of this chunk validate successfully against
      // the torn mid-erase element set.
      if (SV_FAULT_SHOULD_FAIL(debug::Point::kMutEarlyRelease)) {
        t.node->lock.release();
        std::this_thread::yield();  // widen the torn window
        result = as_data(t.node)->vec.erase(k);
        ctx.drop_all();
        return true;
      }
#endif
      const std::uint64_t c = version_reserve();
      if (snapshots_active()) push_preimage(t.node);
      result = as_data(t.node)->vec.erase(k);
      if (result) t.node->mod_version.store(c, std::memory_order_release);
      t.node->lock.release();
      ctx.drop_all();
      return true;
    }

    // k found in an index layer: walk the down pointers, removing k from
    // each layer and orphaning the node below (lines 37-44). Locks are held
    // top-down pairwise; every node below is reachable only through locked
    // ancestors, so hazard pointers are unnecessary here.
    NodeBase* curr = t.node;
    while (curr->layer > 0) {
      NodeBase* down = nullptr;
      const bool erased = as_index(curr)->vec.erase(k, &down);
      assert(erased && down != nullptr);
      if (!erased || down == nullptr) {
        // Unreachable by the §IV-C invariant (the entry was present under
        // the lock we hold); restart defensively rather than crash.
        curr->lock.release();
        return false;
      }
      down->lock.acquire();
      down->lock.set_orphan_locked(true);
      curr->lock.release();
      curr = down;
    }
    const std::uint64_t c = version_reserve();
    if (snapshots_active()) push_preimage(curr);
    const bool erased = as_data(curr)->vec.erase(k);
    assert(erased);
    if (erased) curr->mod_version.store(c, std::memory_order_release);
    curr->lock.release();
    ctx.drop_all();
    result = true;
    return true;
  }

  // ---- Update implementation -------------------------------------------------

  bool try_update(Ctx& ctx, K k, V v, bool& result) {
    Trav t;
    if (!locate(ctx, k, t)) return false;
    if (!t.node->lock.try_upgrade(t.ver)) return false;
    const std::uint64_t c = version_reserve();
    if (snapshots_active()) push_preimage(t.node);
    result = as_data(t.node)->vec.assign(k, v);
    if (result) t.node->mod_version.store(c, std::memory_order_release);
    t.node->lock.release();
    ctx.drop_all();
    return true;
  }

  // ---- Ordered-navigation implementation ---------------------------------------

  bool try_floor(Ctx& ctx, K k, Entry& out) {
    Trav t;
    if (!locate(ctx, k, t)) return false;
    // The positioned node is the floor node: nothing to its right can hold
    // a key <= k, and (unless it is the head) its minimum is <= k.
    const auto fle = as_data(t.node)->vec.find_le(k);
    if (!fle.found && !t.node->is_head) return false;  // torn speculation
    if (!t.node->lock.validate(t.ver)) return false;
    out = fle.found ? Entry(std::in_place, fle.key, fle.val) : std::nullopt;
    ctx.drop_all();
    return true;
  }

  bool try_ceiling(Ctx& ctx, K k, Entry& out) {
    Trav t;
    if (!locate(ctx, k, t)) return false;
    return try_scan_forward(ctx, t, k, /*use_k=*/true, out);
  }

  // From data node t, find the smallest entry (with key >= k when use_k)
  // in t or any successor, walking hand-over-hand past empty chunks.
  bool try_scan_forward(Ctx& ctx, Trav t, K k, bool use_k, Entry& out) {
    for (;;) {
      const auto e = use_k ? as_data(t.node)->vec.find_ge(k)
                           : as_data(t.node)->vec.min_entry();
      if (e.found) {
        if (!t.node->lock.validate(t.ver)) return false;
        out = Entry(std::in_place, e.key, e.val);
        ctx.drop_all();
        return true;
      }
      NodeBase* next = t.node->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        if (!t.node->lock.validate(t.ver)) return false;
        out = std::nullopt;
        ctx.drop_all();
        return true;
      }
      prefetch_chunk(next, 0);
      const int nslot = other_slot(t.slot);
      ctx.protect(nslot, next);
      if (!t.node->lock.validate(t.ver)) return false;
      const Word next_ver = next->lock.read_begin();
      // Re-validate AFTER reading next's word (the paper's ExchangeDown
      // does the same, Listing 2 line 20): it proves next was still linked
      // when its version was sampled. Otherwise next_ver could be a stable
      // post-unlink word, and every later validate of next would pass while
      // its successors are retired under us.
      if (!t.node->lock.validate(t.ver)) return false;
      ctx.drop(t.slot);
      t = Trav{next, next_ver, nslot};
    }
  }

  // Walk t to the last node of its layer whose chunk is non-empty (or the
  // layer head when the whole layer is empty), re-pinning to slot 0.
  bool rightmost_nonempty(Ctx& ctx, Trav& t) {
    static_assert(reclaim::HazardDomain::kSlotsPerThread >= 3 ||
                      !std::is_same_v<Reclaimer, reclaim::HazardReclaimer>,
                  "rightmost walk needs a third hazard slot");
    Trav best = t;
    ctx.protect(2, best.node);
    best.slot = 2;
    for (;;) {
      NodeBase* next = t.node->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      prefetch_chunk(next, t.node->layer);
      const int nslot = t.slot ^ 1;  // ping-pong within {0, 1}
      ctx.protect(nslot, next);
      if (!t.node->lock.validate(t.ver)) return false;
      const Word next_ver = next->lock.read_begin();
      // Second validate after sampling next's word -- see try_scan_forward.
      if (!t.node->lock.validate(t.ver)) return false;
      t = Trav{next, next_ver, nslot};
      if (node_size(t.node) > 0) {
        ctx.protect(2, t.node);
        best = Trav{t.node, next_ver, 2};
      }
    }
    ctx.protect(0, best.node);  // best stayed protected via slot 2
    ctx.drop(1);
    ctx.drop(2);
    t = Trav{best.node, best.ver, 0};
    return true;
  }

  bool try_last(Ctx& ctx, Entry& out) {
    Trav t = begin_traversal(ctx);
    for (;;) {
      if (!rightmost_nonempty(ctx, t)) return false;
      if (t.node->layer == 0) {
        const auto me = as_data(t.node)->vec.max_entry();
        if (!t.node->lock.validate(t.ver)) return false;
        out = me.found ? Entry(std::in_place, me.key, me.val) : std::nullopt;
        ctx.drop_all();
        return true;
      }
      const auto me = as_index(t.node)->vec.max_entry();
      NodeBase* down = nullptr;
      if (me.found) {
        down = me.val;
      } else if (t.node->is_head) {
        down = t.node->head_down;
      } else {
        return false;  // torn speculation: empty non-head after the walk
      }
      if (!exchange_down(ctx, t, down)) return false;
    }
  }

  // ---- Range implementation ---------------------------------------------------

  // The data chunks a range holds write-locked, left to right. Most ranges
  // lock a few chunks, so the list lives inline and moves to the heap only
  // for long ranges. It is a local rather than a thread_local buffer
  // because a range body may itself range over another map of this type.
  class LockedChunks {
   public:
    void push_back(NodeBase* n) {
      if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
      if (size_ < kInline) {
        inline_[size_] = n;
      } else {
        spill_.push_back(n);
      }
      ++size_;
    }
    NodeBase* const* begin() const noexcept {
      return size_ > kInline ? spill_.data() : inline_.data();
    }
    NodeBase* const* end() const noexcept { return begin() + size_; }
    NodeBase* back() const noexcept { return end()[-1]; }

   private:
    static constexpr std::size_t kInline = 8;
    std::array<NodeBase*, kInline> inline_{};
    std::vector<NodeBase*> spill_;
    std::size_t size_ = 0;
  };

  // Write-lock the data nodes covering [lo, hi] left to right, call
  // body(node) on each (body returns its visit count), release all.
  // Returns the total number of mappings visited.
  template <class Body>
  std::size_t range_locked(K lo, K hi, bool mutating, Body&& body) {
    stats::Scope stats_scope(stats_);
    Ctx ctx = reclaimer_.thread_ctx();
    OpGuard op_scope(ctx);
    sync::Backoff backoff;
    for (;;) {
      std::size_t visited = 0;
      if (try_range(ctx, lo, hi, mutating, body, visited)) {
        stats::count(stats::Counter::kRangeOps);
        if (visited > 0) stats::count(stats::Counter::kRangeKeysVisited, visited);
        return visited;
      }
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  template <class Body>
  bool try_range(Ctx& ctx, K lo, K hi, bool mutating, Body& body,
                 std::size_t& visited) {
    Trav t;
    if (!locate(ctx, lo, t)) return false;
    if (!t.node->lock.try_upgrade(t.ver)) return false;
    // Growing phase: extend right while the range may continue. While we
    // hold a node's write lock its successor cannot be unlinked, so the
    // plain next walk is safe without hazard pointers. The successor's
    // bounds are read in a read section: a writer rewriting it under its
    // lock (a commit midway through {remove(m), put(m')}) can show a
    // minimum larger than in any committed state. Waiting for it is fine,
    // as this phase already blocks in acquire().
    LockedChunks locked;
    locked.push_back(t.node);
    ctx.drop_all();
    for (;;) {
      NodeBase* last = locked.back();
      NodeBase* next = last->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      prefetch_chunk(next, 0);
      bool beyond = false;
      for (;;) {
        const Word w = next->lock.read_begin();
        beyond = node_size(next) > 0 && node_min_key(next) > hi;
        if (next->lock.validate(w)) break;
      }
      if (beyond) break;
      next->lock.acquire();
      locked.push_back(next);
      if (node_size(next) > 0 && node_max_key(next) > hi) break;
    }
    if (mutating) {
      // One commit version covers the whole locked range: the transform is
      // a single atomic state change to snapshot readers.
      const std::uint64_t c = version_reserve();
      const bool preserve = snapshots_active();
      for (NodeBase* n : locked) {
        if (preserve) push_preimage(n);
        visited += body(as_data(n));
        n->mod_version.store(c, std::memory_order_release);
      }
    } else {
      for (NodeBase* n : locked) visited += body(as_data(n));
    }
    for (NodeBase* n : locked) n->lock.release();
    return true;
  }

  // ---- Multiversioning implementation (docs/SNAPSHOTS.md) --------------------
  //
  // Invariants: mod_version and vchain of a data chunk are written only
  // under its write lock; chain records are immutable after publication and
  // strictly descend by version; each chunk's chain describes the chunk's
  // own key sub-range at past versions, with splits and merges re-
  // partitioning ("folding") the chains across the new boundary so every
  // retained version stays resolvable from the chunks a reader can reach.

  static constexpr std::size_t kMaxChainLength = 8;

  // Reserve the next commit version. Callers hold the write locks of every
  // chunk they will mutate BEFORE reserving, push pre-images after
  // reserving and before the first mutation, and store mod_version = c
  // before releasing. The reserve-then-check-registry order pairs with the
  // registry's claim-then-load order (mvcc::SnapshotRegistry) so a writer
  // never misses a reader it must preserve state for.
  std::uint64_t version_reserve() noexcept {
    return commit_version_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  bool snapshots_active() const noexcept { return snaps_.active() != 0; }

  // Record the chunk's current live contents at its current mod_version
  // (callers hold the chunk's write lock and have already reserved a newer
  // commit version). No-op when that state is already the chain head.
  void push_preimage(NodeBase* n) {
    const std::uint64_t m = n->mod_version.load(std::memory_order_relaxed);
    VRecord* head = n->vchain.load(std::memory_order_relaxed);
    if (head != nullptr && head->version == m) {
      maybe_prune(n);
      return;
    }
    // A record at version m is only ever resolved by a reader pinned at
    // p >= m; when the registry can prove no such pin exists, skip the
    // push. This is what bounds chain growth (and keeps writers O(chain))
    // under a long-pinned view: its first preserved record satisfies it
    // forever, and every later commit on the chunk lands here.
    if (!snaps_.needs_preimage(m)) {
      stats::count(stats::Counter::kPreimagesSkipped);
      maybe_prune(n);
      return;
    }
    const std::uint32_t count = as_data(n)->vec.size();
    VRecord* rec = alloc_record(m, count, head);
    std::uint32_t i = 0;
    as_data(n)->vec.for_each([&](K k, V v) {
      if (i < count) {
        rec->keys()[i] = k;
        rec->vals()[i] = v;
        ++i;
      }
    });
    n->vchain.store(rec, std::memory_order_release);
    maybe_prune(n);
  }

  // Truncate chain records no registered snapshot can reach: keep every
  // record newer than the registry floor plus the newest record at-or-below
  // it. A walker that loads the chain head now stops inside the kept
  // prefix, but one that loaded it before a fold may not: fold_split and
  // fold_merge prepend a copy of every retained version ahead of the old
  // chain, so the cut lands among the copies and detaches the old chain
  // whole -- the records that walker stands on. The detached tail is
  // therefore retired, not freed (retire_records).
  void maybe_prune(NodeBase* n) {
    VRecord* head = n->vchain.load(std::memory_order_relaxed);
    std::size_t len = 0;
    for (VRecord* r = head; r != nullptr;
         r = r->next.load(std::memory_order_relaxed)) {
      ++len;
    }
    if (len <= kMaxChainLength) return;
    const std::uint64_t floor = snaps_.floor();
    if (floor == mvcc::SnapshotRegistry::kNoFloor) {
      // No registered snapshot: nothing reads this chain now, and any
      // future snapshot is served by pre-images pushed by later commits
      // (its registration precedes, in seq_cst order, every commit newer
      // than its pinned version).
      retire_records(n->vchain.exchange(nullptr, std::memory_order_relaxed));
      return;
    }
    for (VRecord* r = head; r != nullptr;
         r = r->next.load(std::memory_order_relaxed)) {
      if (r->version <= floor) {
        retire_records(r->next.exchange(nullptr, std::memory_order_relaxed));
        return;
      }
    }
  }

  // Hands a detached run of records to record_epochs_. It is freed once
  // every chain walk that could have reached it has ended; no view has to
  // be released first (docs/SNAPSHOTS.md, "Pruning").
  void retire_records(VRecord* run) {
    if (run == nullptr) return;
    record_epochs_.thread_ctx().defer(run, &reclaim_records, this);
  }

  // Split fold: partition `left`'s chain across the new boundary so each
  // side's records describe only its own key sub-range at every retained
  // version. Filtered copies are PREPENDED to left's old chain (same
  // version sequence): new walkers stop in the filtered prefix, and
  // in-flight walkers keep reading the old records, which stay allocated
  // until those walks end even when the prune below detaches them
  // (maybe_prune); otherwise the shadowed tail dies with the node. `sib` is
  // unpublished (or locked), so its chain is written fresh. Caller holds
  // left's write lock.
  void fold_split(NodeBase* left, NodeBase* sib, K bound) {
    VRecord* old_head = left->vchain.load(std::memory_order_relaxed);
    if (old_head == nullptr) return;
    SV_FAULT_POINT(debug::Point::kVersionFold);
    stats::count(stats::Counter::kVersionFolds);
    std::vector<VRecord*> recs;
    for (VRecord* r = old_head; r != nullptr;
         r = r->next.load(std::memory_order_relaxed)) {
      recs.push_back(r);
    }
    VRecord* left_chain = old_head;
    VRecord* sib_chain = sib->vchain.load(std::memory_order_relaxed);
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {  // oldest first
      VRecord* r = *it;
      std::uint32_t nl = 0;
      for (std::uint32_t i = 0; i < r->count; ++i) {
        if (r->keys()[i] < bound) ++nl;
      }
      VRecord* lr = alloc_record(r->version, nl, left_chain);
      VRecord* sr = alloc_record(r->version, r->count - nl, sib_chain);
      std::uint32_t il = 0, is = 0;
      for (std::uint32_t i = 0; i < r->count; ++i) {
        if (r->keys()[i] < bound) {
          lr->keys()[il] = r->keys()[i];
          lr->vals()[il] = r->vals()[i];
          ++il;
        } else {
          sr->keys()[is] = r->keys()[i];
          sr->vals()[is] = r->vals()[i];
          ++is;
        }
      }
      left_chain = lr;
      sib_chain = sr;
    }
    sib->vchain.store(sib_chain, std::memory_order_release);
    left->vchain.store(left_chain, std::memory_order_release);
    maybe_prune(left);
  }

  // Merge fold, called with both write locks held BEFORE right's elements
  // are drained into left. Readers that already passed left resolve right
  // from right's own chain (pre-image pushed here); readers that arrive at
  // left after the merge -- when right is unreachable -- must resolve the
  // union of both histories from left's chain alone, so one union record
  // per distinct retained version is prepended.
  void fold_merge(NodeBase* left, NodeBase* right) {
    SV_FAULT_POINT(debug::Point::kVersionFold);
    stats::count(stats::Counter::kVersionFolds);
    push_preimage(right);  // right's live pre-merge state, at its version
    push_preimage(left);   // left's live pre-merge state, at its version
    std::vector<VRecord*> lrecs, rrecs;  // newest first
    for (VRecord* r = left->vchain.load(std::memory_order_relaxed);
         r != nullptr; r = r->next.load(std::memory_order_relaxed)) {
      lrecs.push_back(r);
    }
    for (VRecord* r = right->vchain.load(std::memory_order_relaxed);
         r != nullptr; r = r->next.load(std::memory_order_relaxed)) {
      rrecs.push_back(r);
    }
    std::vector<std::uint64_t> vers;
    for (VRecord* r : lrecs) vers.push_back(r->version);
    for (VRecord* r : rrecs) vers.push_back(r->version);
    std::sort(vers.begin(), vers.end());
    vers.erase(std::unique(vers.begin(), vers.end()), vers.end());
    auto newest_le = [](const std::vector<VRecord*>& recs,
                        std::uint64_t u) -> VRecord* {
      for (VRecord* r : recs) {  // newest first
        if (r->version <= u) return r;
      }
      return nullptr;
    };
    VRecord* chain = left->vchain.load(std::memory_order_relaxed);
    for (std::uint64_t u : vers) {  // ascending: prepend => descending chain
      VRecord* la = newest_le(lrecs, u);
      VRecord* ra = newest_le(rrecs, u);
      const std::uint32_t count =
          (la != nullptr ? la->count : 0) + (ra != nullptr ? ra->count : 0);
      VRecord* rec = alloc_record(u, count, chain);
      std::uint32_t i = 0;
      for (VRecord* src : {la, ra}) {
        if (src == nullptr) continue;
        for (std::uint32_t j = 0; j < src->count; ++j) {
          rec->keys()[i] = src->keys()[j];
          rec->vals()[i] = src->vals()[j];
          ++i;
        }
      }
      chain = rec;
    }
    left->vchain.store(chain, std::memory_order_release);
    maybe_prune(left);
  }

  // Sentinel stored into a retired (merged-away) node's `next` at unlink
  // time. Never dereferenced: versioned readers treat it as "this chunk
  // was merged under me, re-position", and every other traversal
  // validates its source's seqlock word before using a successor -- a
  // merge write-locks the absorbed node, so those validations fail first.
  static NodeBase* retired_next() noexcept {
    return reinterpret_cast<NodeBase*>(std::uintptr_t{1});
  }

  // Resolve data chunk n's state at version v: appends the mappings within
  // [lo, hi] to out (cleared first; chunk-local, unsorted) and returns the
  // successor pointer consistent with the resolved contents plus the
  // resolved full-state minimum (scan termination). An in-flight commit
  // costs a bounded wait (read_begin), a racing commit a bounded re-read
  // (each failure implies a strictly newer commit on this chunk, and
  // commits at-or-below v are finite), and a structural move of the
  // successor a bounded re-pair. The one non-local outcome: when n itself
  // has been merged away under the reader (*retired set), its folded
  // history lives on the absorbing left sibling and the caller must
  // re-position from its key cursor.
  void resolve_chunk_at(RecordCtx& walks, NodeBase* n, std::uint64_t v, K lo,
                        K hi, std::vector<std::pair<K, V>>& out,
                        NodeBase** next_out, bool* has_min, K* min_out,
                        bool* retired) {
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt > 0) stats::count(stats::Counter::kSnapshotChunkRetries);
      out.clear();
      const Word w = n->lock.read_begin();
      const std::uint64_t m = n->mod_version.load(std::memory_order_acquire);
      if (m <= v) {
        // Live contents are the state at v: one speculative validated read.
        bool any = false;
        K mn{};
        as_data(n)->vec.for_each([&](K k, V val) {
          if (!any || k < mn) {
            mn = k;
            any = true;
          }
          if (!(k < lo) && !(hi < k)) out.emplace_back(k, val);
        });
        NodeBase* next = n->next.load(std::memory_order_acquire);
        if (!n->lock.validate(w)) continue;  // a commit landed: re-evaluate
        *next_out = next;
        *has_min = any;
        if (any) *min_out = mn;
        stats::count(stats::Counter::kSnapshotChunksLive);
        return;
      }
      // Live is newer than v: resolve from the version chain, pairing the
      // chosen record with the successor pointer (a split/merge that moves
      // the successor also folds the chain; the re-read observes both).
      NodeBase* next1 = n->next.load(std::memory_order_acquire);
      if (next1 == retired_next()) {
        *retired = true;  // n was merged away mid-visit: re-position
        return;
      }
      bool any = false;
      K mn{};
      {
        // Records are read only inside the walk's epoch and copied out. The
        // seq_cst head load pairs with the fence in EpochDomain::defer: a
        // pruner either sees this walk or this load sees its fold.
        ChainWalk walk(walks);
        const VRecord* r = n->vchain.load(std::memory_order_seq_cst);
        SV_FAULT_POINT(debug::Point::kVersionWalk);
        while (r != nullptr && r->version > v) {
          r = r->next.load(std::memory_order_acquire);
        }
        // r == nullptr: this chunk's sub-range held nothing at v (the chunk
        // was born after v, or was empty at every retained version <= v).
        if (r != nullptr) {
          for (std::uint32_t i = 0; i < r->count; ++i) {
            const K k = r->keys()[i];
            if (!any || k < mn) {
              mn = k;
              any = true;
            }
            if (!(k < lo) && !(hi < k)) out.emplace_back(k, r->vals()[i]);
          }
        }
      }
      NodeBase* next2 = n->next.load(std::memory_order_acquire);
      if (next2 == retired_next()) {
        *retired = true;
        return;
      }
      if (next1 != next2) continue;
      *next_out = next2;
      *has_min = any;
      if (any) *min_out = mn;
      stats::count(stats::Counter::kSnapshotChunksChain);
      return;
    }
  }

  // Versioned scan body. `emitted`/`last` form a key cursor owned by the
  // caller: fn has been invoked exactly for the keys <= last (when
  // emitted), and never twice for any key -- the cursor survives both the
  // internal re-positions below and a speculative-descent retry by the
  // caller, so a scan's output is append-only. That is the wait-freedom
  // contract: kSnapshotScanRestarts (emission thrown away and rebuilt)
  // stays zero by construction.
  template <class Fn>
  bool try_range_at(Ctx& ctx, RecordCtx& walks, std::uint64_t v, K lo, K hi,
                    Fn& fn, std::size_t& visited, bool& emitted, K& last) {
    for (;;) {
      // Position: descend to the live floor chunk of the first key still
      // needed. Safe at any pinned v <= now: a chunk's historical
      // sub-range lower bound never exceeds its live minimum, so every
      // mapping > cursor at v is resolvable from this chunk or one to its
      // right.
      Trav t;
      if (!locate(ctx, emitted ? last : lo, t)) return false;
      NodeBase* node = t.node;
      int slot = t.slot;
      std::vector<std::pair<K, V>> buf;
      bool reposition = false;
      while (!reposition) {
        NodeBase* next = nullptr;
        bool has_min = false;
        bool node_retired = false;
        K mn{};
        resolve_chunk_at(walks, node, v, lo, hi, buf, &next, &has_min, &mn,
                         &node_retired);
        if (node_retired) {
          // The chunk under us was merged away; its folded history moved
          // to the left sibling. Re-descend from the cursor -- emitted
          // keys are filtered out below, so nothing is reported twice.
          reposition = true;
          break;
        }
        int nslot = slot;
        if (next != nullptr) {
          // Protect-then-recheck: if the successor moved after resolution,
          // re-resolve so (contents, successor) stay a consistent pair. A
          // concurrent retire of `node` itself surfaces as the poisoned
          // pointer on the re-resolve.
          nslot = other_slot(slot);
          ctx.protect(nslot, next);
          if (node->next.load(std::memory_order_acquire) != next) {
            stats::count(stats::Counter::kSnapshotChunkRetries);
            continue;
          }
        }
        if (has_min && hi < mn) break;  // everything further lies beyond hi
        if (!buf.empty()) {
          std::sort(buf.begin(), buf.end(),
                    [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                      return a.first < b.first;
                    });
          for (const auto& [bk, bv] : buf) {
            if (emitted && !(last < bk)) continue;  // cursor: already out
            fn(bk, bv);
            ++visited;
            last = bk;
            emitted = true;
          }
        }
        if (next == nullptr) break;
        ctx.drop(slot);
        node = next;
        slot = nslot;
      }
      ctx.drop_all();
      if (!reposition) return true;
      stats::count(stats::Counter::kSnapshotChunkRetries);
    }
  }

  // ---- Batch implementation --------------------------------------------------
  //
  // The NO_WAIT 2PL engine that used to live here inline -- covers(),
  // lock_floor_descent(), lock_floor_from(), try_apply_batch() -- moved to
  // the shared transaction layer (txn/lock_mgr.h, reached through the
  // sv::txn::MapAccess friend). What remains below are the map-side
  // mutation primitives the lock manager drives: apply_chunk_ops (absorb a
  // locked chunk's sorted op run, splitting at capacity) and the tower
  // demote used when a batch removes a towered key.

  // Apply staged ops [begin, end) (ascending keys) to one locked chunk,
  // splitting at capacity into locked orphan siblings that are appended to
  // `locked` for the final release. Pieces' mod_version is stamped with the
  // batch's commit version.
  void apply_chunk_ops(NodeBase* chunk, BatchOp* ops,
                       const std::vector<std::uint32_t>& order,
                       std::size_t begin, std::size_t end, std::uint64_t c,
                       bool preserve, std::vector<NodeBase*>& locked,
                       std::size_t& applied, std::int64_t& delta) {
    if (preserve) push_preimage(chunk);
    std::vector<NodeBase*> pieces{chunk};
    std::vector<K> mins{K{}};  // mins[0] unused (chunk covers leftward)
    std::size_t pi = 0;
    for (std::size_t s = begin; s < end; ++s) {
      BatchOp& op = ops[order[s]];
      while (pi + 1 < pieces.size() && !(op.key < mins[pi + 1])) ++pi;
      auto* p = as_data(pieces[pi]);
      if (op.kind == mvcc::BatchOpKind::kRemove) {
        op.applied = p->vec.erase(op.key);
        if (op.applied) {
          ++applied;
          --delta;
        }
        continue;
      }
      if (p->vec.assign(op.key, op.value)) {
        op.applied = false;  // overwrite: present before and after
        continue;
      }
      if (p->vec.full()) {
        // Capacity split under our lock: the sibling is born locked (it is
        // mutated until the batch commits) and orphan (no parent entry),
        // with the donor's capacity, like insert_at_top's split.
        auto* sib = alloc_node<DataNode, V>(p->capacity, nullptr, 0,
                                            /*head=*/false, /*orphan=*/true);
        sib->lock.acquire();  // fresh node: uncontended
        stats::count(stats::Counter::kCapacitySplits);
        const K sib_min = p->vec.split_half(sib->vec);
        if (preserve) fold_split(p, sib, sib_min);
        sib->next.store(p->next.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
        SV_FAULT_POINT(debug::Point::kSplit);
        p->next.store(sib, std::memory_order_release);
        locked.push_back(sib);
        pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(pi) + 1,
                      sib);
        mins.insert(mins.begin() + static_cast<std::ptrdiff_t>(pi) + 1,
                    sib_min);
        if (!(op.key < sib_min)) {
          ++pi;
          p = sib;
        }
      }
      const bool ok = p->vec.insert(op.key, op.value);
      assert(ok);
      (void)ok;
      op.applied = true;
      ++applied;
      ++delta;
    }
    for (NodeBase* piece : pieces) {
      piece->mod_version.store(c, std::memory_order_release);
    }
  }

  // Demote key k's tower: erase k from every index layer and orphan the
  // chunks below -- try_remove's index path minus the final data-layer
  // erase, so k itself stays present. Benign structurally: lookups descend
  // to k's chunk through the left neighbor's entry and find k by the
  // rightward walk. Called with no chunk locks held.
  void demote_tower(Ctx& ctx, K k) {
    sync::Backoff backoff;
    for (;;) {
      if (try_demote_tower(ctx, k)) return;
      ctx.drop_all();
      stats::count(stats::Counter::kOpRestarts);
      backoff.pause();
    }
  }

  bool try_demote_tower(Ctx& ctx, K k) {
    Trav t = begin_traversal(ctx);
    while (t.node->layer > 0) {
      if (!traverse_right(ctx, t, k, /*mutator=*/true)) return false;
      NodeBase* down = nullptr;
      bool exact = false;
      if (!index_down(t, k, &down, &exact)) return false;
      if (exact) {
        if (!t.node->is_head && !Lock::is_orphan(t.ver) &&
            node_min_key(t.node) == k) {
          return false;  // k should also exist a layer up: racing insert
        }
        if (!t.node->lock.try_upgrade(t.ver)) return false;
        NodeBase* curr = t.node;
        while (curr->layer > 0) {
          NodeBase* below = nullptr;
          const bool erased = as_index(curr)->vec.erase(k, &below);
          if (!erased || below == nullptr) {
            curr->lock.release();
            return false;  // defensive: invariant says unreachable
          }
          below->lock.acquire();
          below->lock.set_orphan_locked(true);
          curr->lock.release();
          curr = below;
        }
        curr->lock.release();  // data chunk: k stays in place
        ctx.drop_all();
        return true;
      }
      if (!exchange_down(ctx, t, down)) return false;
    }
    ctx.drop_all();  // k is in no index layer: nothing to demote
    return true;
  }

  // ---- Members ----------------------------------------------------------------

  Config config_;
  // alloc_ is declared before reclaimer_ and record_epochs_ on purpose:
  // their destructors free pending retirements *through* the allocator, so
  // the allocator must be destroyed after them (reverse declaration order).
  alloc::MallocNodeAllocator alloc_;
  Reclaimer reclaimer_;
  std::vector<NodeBase*> heads_;  // per layer, [0] = data
  NodeBase* head_ = nullptr;      // top-layer head (the paper's `head`)
  std::atomic<std::int64_t> approx_size_{0};
  mutable stats::Registry stats_;

  // Multiversioning (docs/SNAPSHOTS.md): the global commit version every
  // committed mutation bumps, and the registry of pinned snapshot versions
  // writers consult before discarding pre-images.
  std::atomic<std::uint64_t> commit_version_{0};
  mvcc::SnapshotRegistry snaps_;
  // Version records detached by maybe_prune wait here until every chain
  // walk that could still reach them has ended. Only resolve_chunk_at's
  // chain path enters this domain and only prunes retire into it, under
  // every Reclaimer policy alike: a hazard pointer protects a chunk, not
  // the records its chain walk crosses. Last: it is cold, and the hot
  // members above keep their cache-line placement.
  reclaim::EpochDomain record_epochs_;
};

// Convenience aliases matching the paper's evaluated variants. Chunk
// layouts are runtime configuration (Config::index_layout /
// Config::data_layout), sorted in both layers by default; the paper's
// sorted index over unsorted data is `data_layout = kUnsorted`.
template <class K, class V>
using SkipVector = SkipVectorMap<K, V, reclaim::HazardReclaimer>;  // SV-HP

template <class K, class V>
using SkipVectorLeak =
    SkipVectorMap<K, V, reclaim::LeakReclaimer>;  // SV-Leak

template <class K, class V>
using SkipVectorSeq = SkipVectorMap<K, V, reclaim::ImmediateReclaimer>;

}  // namespace sv::core
