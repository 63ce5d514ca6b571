// VectorMap: the fixed-capacity chunk container of Listing 1 -- two
// correlated arrays (keys, vals) of capacity 2*targetSize plus a size field.
//
// Storage is non-owning: the skip vector allocates each node as one
// contiguous block [node header | keys | vals] so that scanning a chunk is a
// linear walk (the locality the paper is about), and hands the array
// pointers to this view.
//
// Elements are std::atomic<K>/std::atomic<V> accessed with relaxed ordering.
// Mutators run only under the node's write lock; readers run speculatively
// under a sequence-lock read section and re-validate afterwards, so reads
// here may observe torn *sets* of elements but never torn elements, and all
// loops are bounded by `capacity` regardless of what a racing writer does
// (the termination requirement of §IV-C).
//
// Two layouts (Fig. 7b), selected per chunk at runtime by a tag fixed at
// construction (the skip vector picks one per layer, docs/TUNING.md
// "Chunk layouts"):
//   Sorted:   keys ascending; O(log T) lookup, O(T) insert/erase (shifts).
//             Every lookup, index_down, range start and insert/erase
//             position is one lower or upper bound, searched branch-free
//             (simd::scalar::bound).
//   Unsorted: append/swap-with-last; O(T) lookup, O(1) insert/erase writes.
//             Every search is one linear pass (simd::scalar::find_*).
// The tag never changes, so a speculative reader always runs the search
// matching the bytes it reads.
//
// Every search reads the key array through key_loader(), one relaxed
// atomic load per element: a read racing a writer is no data race, the
// ordering lives entirely in the sequence lock (the acquire fence inside
// SequenceLock::validate), and the TSan build checks the search the
// release build runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "stats/stats.h"
#include "vectormap/layout.h"

namespace sv::vectormap {

template <class K, class V>
class VectorMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "VectorMap elements must be trivially copyable: they are "
                "read speculatively under sequence locks");

 public:
  VectorMap(std::atomic<K>* keys, std::atomic<V>* vals, std::uint32_t capacity,
            Layout layout = Layout::kSorted) noexcept
      : keys_(keys), vals_(vals), capacity_(capacity), size_(0),
        layout_(layout) {}

  VectorMap(const VectorMap&) = delete;
  VectorMap& operator=(const VectorMap&) = delete;

  std::uint32_t capacity() const noexcept { return capacity_; }

  bool sorted() const noexcept { return layout_ == Layout::kSorted; }

  // Clamped size: a speculative reader may race with a writer, but must
  // never index out of bounds.
  std::uint32_t size() const noexcept {
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    return n > capacity_ ? capacity_ : n;
  }
  bool empty() const noexcept { return size() == 0; }
  bool full() const noexcept { return size() >= capacity_; }

  // ---- Speculative-safe reads ---------------------------------------------

  struct FindLE {
    bool found = false;
    K key{};
    V val{};
  };

  // Largest key <= k and its value ("k/v pair for largest key <= K_k",
  // Listings 2-4). found == false when every key exceeds k or the chunk is
  // empty -- the caller then falls back to the head-down pointer or
  // restarts.
  FindLE find_le(K k) const noexcept {
    const std::uint32_t n = size();
    const std::uint32_t i = search_le(n, k);
    if (i >= n) return {};
    return {true, load_key(i), load_val(i)};
  }

  // Smallest key >= k and its value. found == false when every key is
  // below k or the chunk is empty.
  FindLE find_ge(K k) const noexcept {
    const std::uint32_t n = size();
    const std::uint32_t i = search_ge(n, k);
    if (i >= n) return {};
    return {true, load_key(i), load_val(i)};
  }

  // Entry with the smallest / largest key (found == false when empty).
  FindLE min_entry() const noexcept {
    const std::uint32_t n = size();
    const std::uint32_t i = search_min(n);
    if (i >= n) return {};
    return {true, load_key(i), load_val(i)};
  }

  FindLE max_entry() const noexcept {
    const std::uint32_t n = size();
    const std::uint32_t i = search_max(n);
    if (i >= n) return {};
    return {true, load_key(i), load_val(i)};
  }

  bool contains(K k) const noexcept { return find_index(k) >= 0; }

  std::optional<V> get(K k) const noexcept {
    const std::int64_t i = find_index(k);
    if (i < 0) return std::nullopt;
    return load_val(static_cast<std::uint32_t>(i));
  }

  // Smallest / largest key. Only meaningful when size() > 0; speculative
  // callers must validate before trusting the answer.
  K min_key() const noexcept {
    const std::uint32_t n = size();
    const std::uint32_t i = search_min(n);
    return i < n ? load_key(i) : K{};
  }

  K max_key() const noexcept {
    const std::uint32_t n = size();
    const std::uint32_t i = search_max(n);
    return i < n ? load_key(i) : K{};
  }

  // ---- Mutators (caller holds the node's write lock) ----------------------

  // Insert a new mapping; the key must not be present. Returns false when
  // the chunk is at capacity (caller must split first).
  bool insert(K k, V v) noexcept {
    const std::uint32_t n = size();  // clamped: see size() comment
    if (n >= capacity_) return false;
    if (sorted()) {
      std::uint32_t pos = sorted_upper_bound(n, k);
      if (n > pos) {
        stats::count(stats::Counter::kChunkShiftedSlots, n - pos);
      }
      for (std::uint32_t i = n; i > pos; --i) {
        store_key(i, load_key(i - 1));
        store_val(i, load_val(i - 1));
      }
      store_key(pos, k);
      store_val(pos, v);
    } else {
      store_key(n, k);
      store_val(n, v);
    }
    size_.store(n + 1, std::memory_order_relaxed);
    return true;
  }

  // Overwrite the value of an existing key. Returns false if absent.
  bool assign(K k, V v) noexcept {
    const std::int64_t i = find_index(k);
    if (i < 0) return false;
    store_val(static_cast<std::uint32_t>(i), v);
    return true;
  }

  // Remove k; if found, optionally report its value. Returns false if
  // absent.
  bool erase(K k, V* out = nullptr) noexcept {
    const std::int64_t idx = find_index(k);
    if (idx < 0) return false;
    const auto i = static_cast<std::uint32_t>(idx);
    if (out != nullptr) *out = load_val(i);
    // Clamped size plus an explicit empty guard: under fault-injection
    // mutations a racing writer can shrink the chunk between find_index and
    // here; n - 1 must never wrap and the shift loop must stay in bounds.
    const std::uint32_t n = size();
    if (n == 0) return false;
    if (sorted()) {
      if (n > i + 1) {
        stats::count(stats::Counter::kChunkShiftedSlots, n - i - 1);
      }
      for (std::uint32_t j = i + 1; j < n; ++j) {
        store_key(j - 1, load_key(j));
        store_val(j - 1, load_val(j));
      }
    } else {
      store_key(i, load_key(n - 1));
      store_val(i, load_val(n - 1));
    }
    size_.store(n - 1, std::memory_order_relaxed);
    return true;
  }

  void clear() noexcept { size_.store(0, std::memory_order_relaxed); }

  // ---- Structural operations (both chunks' write locks held) --------------

  // Move every element with key > pivot into dst (which must be empty and
  // have sufficient capacity). Used when Insert splits a node at the new
  // key. Order among chunks is preserved: dst holds the strictly-greater
  // suffix. The two chunks may carry different layout tags.
  void steal_greater(K pivot, VectorMap& dst) noexcept {
    const std::uint32_t n = size();  // clamped: see size() comment
    if (sorted()) {
      const std::uint32_t pos = sorted_upper_bound(n, pivot);
      for (std::uint32_t i = pos; i < n; ++i) {
        dst.insert(load_key(i), load_val(i));
      }
      size_.store(pos, std::memory_order_relaxed);
    } else {
      std::uint32_t w = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const K ki = load_key(i);
        const V vi = load_val(i);
        if (ki > pivot) {
          dst.insert(ki, vi);
        } else {
          store_key(w, ki);
          store_val(w, vi);
          ++w;
        }
      }
      size_.store(w, std::memory_order_relaxed);
    }
  }

  // Move the upper half (by key order) into dst; returns dst's minimum key.
  // Used when an insert finds the chunk at capacity. Requires size() >= 2.
  K split_half(VectorMap& dst) noexcept {
    const K med = median_key();
    steal_greater(med, dst);
    return dst.min_key();
  }

  // Append every element of src (whose keys are all greater than ours --
  // src is our right neighbor). src is left empty.
  void merge_from(VectorMap& src) noexcept { src.drain_into(*this); }

  // Implementation helper for merge_from (needs access to src internals).
  // Keys within an unsorted chunk are unordered; appending to a sorted dst
  // via insert() keeps dst sorted either way.
  void drain_into(VectorMap& dst) noexcept {
    const std::uint32_t n = size();  // clamped: see size() comment
    for (std::uint32_t i = 0; i < n; ++i) {
      dst.insert(load_key(i), load_val(i));
    }
    size_.store(0, std::memory_order_relaxed);
  }

  // Writer-context (or quiescent) iteration in arbitrary order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::uint32_t n = size();
    for (std::uint32_t i = 0; i < n; ++i) fn(load_key(i), load_val(i));
  }

  // Writer-context: replace the value of every mapping with key in
  // [lo, hi] by fn(key, value), in one pass (unspecified order). Returns
  // the number of mappings transformed.
  template <class Fn>
  std::uint32_t transform_range(K lo, K hi, Fn&& fn) {
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    std::uint32_t visited = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const K k = load_key(i);
      if (lo <= k && k <= hi) {
        store_val(i, fn(k, load_val(i)));
        ++visited;
      }
    }
    return visited;
  }

  // Writer-context (or quiescent) visit of the mappings with key in
  // [lo, hi], in ascending key order (none when hi < lo); returns how many
  // were visited. Reads only the keys in range: a sorted chunk starts at
  // lo's lower bound and stops at the first key above hi, an unsorted one
  // sorts just its in-range pairs.
  template <class Fn>
  std::uint32_t for_each_ordered(K lo, K hi, Fn&& fn) const {
    const std::uint32_t n = size();
    if (hi < lo) return 0;
    if (sorted()) {
      const std::uint32_t first = sorted_lower_bound(n, lo);
      std::uint32_t i = first;
      for (; i < n; ++i) {
        const K k = load_key(i);
        if (hi < k) break;
        fn(k, load_val(i));
      }
      return i - first;
    }
    thread_local std::vector<std::pair<K, V>> in_range;
    in_range.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      const K k = load_key(i);
      if (!(k < lo) && !(hi < k)) in_range.emplace_back(k, load_val(i));
    }
    std::sort(in_range.begin(), in_range.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [k, v] : in_range) fn(k, v);
    return static_cast<std::uint32_t>(in_range.size());
  }

  // The whole chunk in ascending key order (iteration APIs, validation).
  template <class Fn>
  void for_each_ordered(Fn&& fn) const {
    if (!empty()) for_each_ordered(min_key(), max_key(), fn);
  }

 private:
  K load_key(std::uint32_t i) const noexcept {
    return keys_[i].load(std::memory_order_relaxed);
  }
  V load_val(std::uint32_t i) const noexcept {
    return vals_[i].load(std::memory_order_relaxed);
  }
  void store_key(std::uint32_t i, K k) noexcept {
    keys_[i].store(k, std::memory_order_relaxed);
  }
  void store_val(std::uint32_t i, V v) noexcept {
    vals_[i].store(v, std::memory_order_relaxed);
  }

  auto key_loader() const noexcept {
    return [this](std::uint32_t i) { return load_key(i); };
  }

  // One chunk search is about to run. It counts kScalarFallbacks, the one
  // search path's counter (stats.h).
  static void note_search() noexcept {
    stats::count(stats::Counter::kScalarFallbacks);
  }

  // ---- Shared search helpers ----------------------------------------------
  // All searches below operate on the first n slots (n already clamped by
  // size()) and return an index < n, or simd::kNpos for "no qualifying
  // element". Every public read and mutator lookup routes through these,
  // branching once on the chunk's layout tag.

  // Sorted layout: first index with key > k / >= k.
  std::uint32_t sorted_upper_bound(std::uint32_t n, K k) const noexcept {
    return simd::scalar::bound<true>(key_loader(), n, k);
  }

  std::uint32_t sorted_lower_bound(std::uint32_t n, K k) const noexcept {
    return simd::scalar::bound<false>(key_loader(), n, k);
  }

  // Largest key <= k, layout-aware.
  std::uint32_t search_le(std::uint32_t n, K k) const noexcept {
    note_search();
    if (sorted()) {
      const std::uint32_t ub = sorted_upper_bound(n, k);
      return ub == 0 ? simd::kNpos : ub - 1;
    }
    return simd::scalar::find_le(key_loader(), n, k);
  }

  // Smallest key >= k, layout-aware.
  std::uint32_t search_ge(std::uint32_t n, K k) const noexcept {
    note_search();
    if (sorted()) {
      const std::uint32_t lb = sorted_lower_bound(n, k);
      return lb < n ? lb : simd::kNpos;
    }
    return simd::scalar::find_ge(key_loader(), n, k);
  }

  // Exact match, layout-aware.
  std::uint32_t search_eq(std::uint32_t n, K k) const noexcept {
    note_search();
    if (sorted()) {
      const std::uint32_t lb = sorted_lower_bound(n, k);
      return (lb < n && load_key(lb) == k) ? lb : simd::kNpos;
    }
    return simd::scalar::find_eq(key_loader(), n, k);
  }

  // Index of the smallest / largest key (kNpos when n == 0).
  std::uint32_t search_min(std::uint32_t n) const noexcept {
    if (sorted()) {
      return n != 0 ? 0 : simd::kNpos;
    }
    std::uint32_t best = simd::kNpos;
    K best_key{};
    for (std::uint32_t i = 0; i < n; ++i) {
      const K ki = load_key(i);
      if (best == simd::kNpos || ki < best_key) {
        best = i;
        best_key = ki;
      }
    }
    return best;
  }

  std::uint32_t search_max(std::uint32_t n) const noexcept {
    if (sorted()) {
      return n != 0 ? n - 1 : simd::kNpos;
    }
    std::uint32_t best = simd::kNpos;
    K best_key{};
    for (std::uint32_t i = 0; i < n; ++i) {
      const K ki = load_key(i);
      if (best == simd::kNpos || ki > best_key) {
        best = i;
        best_key = ki;
      }
    }
    return best;
  }

  // Index of k, or -1.
  std::int64_t find_index(K k) const noexcept {
    const std::uint32_t i = search_eq(size(), k);
    return i == simd::kNpos ? -1 : static_cast<std::int64_t>(i);
  }

  // Key such that exactly floor(n/2) elements are <= it (writer context).
  K median_key() const {
    // Clamped size plus an empty guard: under fault-injection mutations a
    // racing writer can empty the chunk; (n - 1) / 2 must never wrap.
    const std::uint32_t n = size();
    if (n == 0) return K{};
    if (sorted()) return load_key((n - 1) / 2);
    thread_local std::vector<K> scratch;
    scratch.clear();
    for (std::uint32_t i = 0; i < n; ++i) scratch.push_back(load_key(i));
    auto mid = scratch.begin() + (n - 1) / 2;
    std::nth_element(scratch.begin(), mid, scratch.end());
    return *mid;
  }

  std::atomic<K>* keys_;
  std::atomic<V>* vals_;
  const std::uint32_t capacity_;
  std::atomic<std::uint32_t> size_;
  const Layout layout_;
};

}  // namespace sv::vectormap
