// FraserSkipList: a lock-free skip list in the style of Fraser's PhD
// algorithm [16] as implemented in Synchrobench -- the paper's primary
// concurrent baseline ("FSL").
//
// Standard design: Harris-style marked next pointers (mark = low bit), a
// search that snips marked nodes as it goes, towers linked bottom-up on
// insert and marked top-down on remove. Like the Synchrobench original it
// performs NO memory reclamation while live (unlinked nodes leak until the
// list is destroyed); the skip vector paper leans on exactly this contrast.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <type_traits>

#include "common/rng.h"
#include "stats/stats.h"

namespace sv::baselines {

template <class K, class V>
class FraserSkipList {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

 public:
  static constexpr int kMaxHeight = 32;

  explicit FraserSkipList(int max_height = kMaxHeight, std::uint64_t seed = 1)
      : max_height_(max_height < 1 ? 1
                    : max_height > kMaxHeight ? kMaxHeight
                                              : max_height),
        seed_(seed) {
    head_ = Node::make(K{}, V{}, max_height_, Node::kHead);
    tail_ = Node::make(K{}, V{}, max_height_, Node::kTail);
    for (int i = 0; i < max_height_; ++i) {
      head_->next[i].store(pack(tail_, false), std::memory_order_relaxed);
    }
    all_nodes_head_.store(nullptr, std::memory_order_relaxed);
  }

  ~FraserSkipList() {
    // Free every node ever allocated (linked or logically deleted) via the
    // allocation trail; sentinels last.
    Node* n = all_nodes_head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->alloc_next;
      Node::destroy(n);
      n = next;
    }
    Node::destroy(head_);
    Node::destroy(tail_);
  }

  FraserSkipList(const FraserSkipList&) = delete;
  FraserSkipList& operator=(const FraserSkipList&) = delete;

  std::optional<V> lookup(K k) {
    stats::Scope stats_scope(stats_);
    Node* pred = head_;
    Node* curr = nullptr;
    // Wait-free read path: no snipping, just skip marked nodes.
    for (int level = max_height_ - 1; level >= 0; --level) {
      curr = strip(pred->next[level].load(std::memory_order_acquire));
      for (;;) {
        bool marked = is_marked(curr->next_word(level));
        Node* succ = strip(curr->next_word(level));
        while (marked) {  // hop over logically deleted nodes
          curr = succ;
          marked = is_marked(curr->next_word(level));
          succ = strip(curr->next_word(level));
        }
        if (lt(curr, k)) {
          pred = curr;
          curr = succ;
        } else {
          break;
        }
      }
    }
    if (eq(curr, k) && !is_marked(curr->next_word(0))) {
      stats::count(stats::Counter::kLookupHit);
      return curr->value.load(std::memory_order_acquire);
    }
    stats::count(stats::Counter::kLookupMiss);
    return std::nullopt;
  }

  bool contains(K k) { return lookup(k).has_value(); }

  bool insert(K k, V v) {
    stats::Scope stats_scope(stats_);
    const int height = random_height();
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    for (;;) {
      if (find(k, preds, succs)) {
        stats::count(stats::Counter::kInsertDup);
        return false;  // already present
      }
      Node* node = Node::make(k, v, height, Node::kData);
      record_allocation(node);
      for (int i = 0; i < height; ++i) {
        node->next[i].store(pack(succs[i], false), std::memory_order_relaxed);
      }
      // Linearize by linking level 0.
      std::uintptr_t expected = pack(succs[0], false);
      if (!preds[0]->next[0].compare_exchange_strong(
              expected, pack(node, false), std::memory_order_acq_rel)) {
        stats::count(stats::Counter::kOpRestarts);
        continue;  // node stays on the allocation trail; retry fresh
      }
      stats::count(stats::Counter::kInsertNew);
      // Build the tower bottom-up; re-find on interference.
      for (int i = 1; i < height; ++i) {
        for (;;) {
          std::uintptr_t cur = node->next_word(i);
          if (is_marked(cur) || is_marked(node->next_word(0))) {
            return true;  // concurrently removed; stop helping ourselves
          }
          // Re-aim level i at the fresh successor with a CAS from the
          // unmarked word just read: a plain store could overwrite a mark
          // a concurrent remover set in between, and the node would then
          // stay linked at level i after its removal. Only a remover
          // changes this word while level i is unlinked, so a failed CAS
          // means the node is being removed.
          const std::uintptr_t exp = pack(succs[i], false);
          if (cur != exp &&
              !node->next[i].compare_exchange_strong(
                  cur, exp, std::memory_order_acq_rel)) {
            return true;
          }
          std::uintptr_t pexp = pack(succs[i], false);
          if (preds[i]->next[i].compare_exchange_strong(
                  pexp, pack(node, false), std::memory_order_acq_rel)) {
            break;
          }
          if (find(k, preds, succs)) {
            // Someone else may have removed and re-inserted around us; if
            // the found node is not ours, abandon the upper levels.
            if (succs[0] != node) return true;
          } else {
            return true;  // node vanished (removed); done
          }
        }
      }
      return true;
    }
  }

  bool remove(K k) {
    stats::Scope stats_scope(stats_);
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    if (!find(k, preds, succs)) {
      stats::count(stats::Counter::kRemoveMiss);
      return false;
    }
    Node* node = succs[0];
    // Mark from the top level down to 1.
    for (int i = node->height - 1; i >= 1; --i) {
      std::uintptr_t w = node->next_word(i);
      while (!is_marked(w)) {
        node->next[i].compare_exchange_weak(w, w | 1u,
                                            std::memory_order_acq_rel);
      }
    }
    // Level 0 decides the winner.
    std::uintptr_t w = node->next_word(0);
    for (;;) {
      if (is_marked(w)) {
        stats::count(stats::Counter::kRemoveMiss);
        return false;  // someone else won
      }
      if (node->next[0].compare_exchange_weak(w, w | 1u,
                                              std::memory_order_acq_rel)) {
        find(k, preds, succs);  // physically unlink
        stats::count(stats::Counter::kRemoveHit);
        return true;
      }
    }
  }

  // Quiescent iteration in ascending key order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const Node* n = strip(head_->next[0].load(std::memory_order_acquire));
    while (n->kind != Node::kTail) {
      if (!is_marked(n->next_word(0))) {
        fn(n->key, n->value.load(std::memory_order_relaxed));
      }
      n = strip(n->next_word(0));
    }
  }

  // Quiescent structural check: level lists sorted, towers consistent.
  bool validate() const {
    for (int level = 0; level < max_height_; ++level) {
      const Node* n = strip(head_->next[level].load(std::memory_order_acquire));
      bool have_prev = false;
      K prev{};
      while (n->kind != Node::kTail) {
        if (is_marked(n->next_word(level))) return false;  // not unlinked
        if (level >= n->height) return false;
        if (have_prev && !(prev < n->key)) return false;
        prev = n->key;
        have_prev = true;
        n = strip(n->next_word(level));
      }
    }
    return true;
  }

 private:
  struct Node {
    enum Kind : std::uint8_t { kData, kHead, kTail };

    K key;
    std::atomic<V> value;
    Node* alloc_next = nullptr;  // allocation trail for the destructor
    const int height;
    const Kind kind;
    std::atomic<std::uintptr_t> next[1];  // trailing array, `height` entries

    std::uintptr_t next_word(int level) const {
      return next[level].load(std::memory_order_acquire);
    }

    static Node* make(K k, V v, int height, Kind kind) {
      const std::size_t bytes =
          sizeof(Node) + (height - 1) * sizeof(std::atomic<std::uintptr_t>);
      void* mem = ::operator new(bytes);
      auto* n = new (mem) Node(k, v, height, kind);
      for (int i = 1; i < height; ++i) {
        new (&n->next[i]) std::atomic<std::uintptr_t>(0);
      }
      return n;
    }
    static void destroy(Node* n) { ::operator delete(n); }

   private:
    Node(K k, V v, int h, Kind kd) : key(k), value(v), height(h), kind(kd) {
      next[0].store(0, std::memory_order_relaxed);
    }
  };

  static std::uintptr_t pack(Node* n, bool marked) {
    return reinterpret_cast<std::uintptr_t>(n) | (marked ? 1u : 0u);
  }
  static Node* strip(std::uintptr_t w) {
    return reinterpret_cast<Node*>(w & ~std::uintptr_t{1});
  }
  static bool is_marked(std::uintptr_t w) { return w & 1u; }

  // key-order with sentinels: head < everything < tail.
  static bool lt(const Node* n, K k) {
    return n->kind == Node::kHead || (n->kind == Node::kData && n->key < k);
  }
  static bool eq(const Node* n, K k) {
    return n->kind == Node::kData && n->key == k;
  }

  int random_height() {
    thread_local Xoshiro256 rng = [] {
      static std::atomic<std::uint64_t> c{0xF5A5E5};
      return Xoshiro256(c.fetch_add(0x9e3779b97f4a7c15ULL,
                                    std::memory_order_relaxed));
    }();
    int h = 1;
    while (h < max_height_ && (rng.next() & 1) == 0) ++h;
    return h;
  }

  // Fraser/Harris search: positions preds/succs around k at every level,
  // physically unlinking marked nodes encountered. Returns true iff an
  // unmarked node with key k sits at level 0.
  bool find(K k, Node** preds, Node** succs) {
  retry:
    Node* pred = head_;
    for (int level = max_height_ - 1; level >= 0; --level) {
      std::uintptr_t curr_w = pred->next[level].load(std::memory_order_acquire);
      Node* curr = strip(curr_w);
      for (;;) {
        std::uintptr_t succ_w = curr->next_word(level);
        Node* succ = strip(succ_w);
        while (is_marked(succ_w)) {
          // Snip the marked node.
          std::uintptr_t exp = pack(curr, false);
          if (!pred->next[level].compare_exchange_strong(
                  exp, pack(succ, false), std::memory_order_acq_rel)) {
            goto retry;
          }
          curr = succ;
          succ_w = curr->next_word(level);
          succ = strip(succ_w);
        }
        if (lt(curr, k)) {
          pred = curr;
          curr = succ;
        } else {
          break;
        }
      }
      preds[level] = pred;
      succs[level] = curr;
    }
    return eq(succs[0], k);
  }

  void record_allocation(Node* n) {
    allocated_bytes_.fetch_add(
        sizeof(Node) + (n->height - 1) * sizeof(std::atomic<std::uintptr_t>),
        std::memory_order_relaxed);
    Node* old = all_nodes_head_.load(std::memory_order_relaxed);
    do {
      n->alloc_next = old;
    } while (!all_nodes_head_.compare_exchange_weak(
        old, n, std::memory_order_release, std::memory_order_relaxed));
  }

 public:
  // Total bytes ever allocated for nodes (nothing is reclaimed while live,
  // so this is also the resident node footprint -- the reason the paper's
  // 2^31 runs ran FSL out of memory while SV completed).
  std::size_t memory_bytes() const noexcept {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

  // Per-instance event counters (hit/miss mix, CAS retries); same registry
  // machinery as the skip vector so benchmarks report both uniformly.
  stats::Registry& stats_registry() const noexcept { return stats_; }

 private:

  const int max_height_;
  const std::uint64_t seed_;
  Node* head_;
  Node* tail_;
  std::atomic<Node*> all_nodes_head_;
  std::atomic<std::size_t> allocated_bytes_{0};
  mutable stats::Registry stats_;
};

}  // namespace sv::baselines
