// Chunk search: the routines VectorMap runs over a chunk's key array.
//
// The skip vector's locality argument (flat chunks instead of per-node
// pointer chasing) pays off only if intra-chunk search runs at memory speed:
//
//   sorted chunks    bound<kUpper>: a branch-free narrowing (one cmov per
//                    step), so a random key mispredicts nothing
//   unsorted chunks  find_le / find_ge / find_eq: one linear pass that loads
//                    each element once
//
// Every routine reads element i through a caller-supplied load(i), so
// VectorMap hands in relaxed atomic loads and the same code runs in every
// build, TSan included. There are no ISA-specific kernels: the default
// build never ran them on u64 keys, and on sorted chunks they measured no
// faster than the narrowing (EXPERIMENTS.md, "Delete the vector
// chunk-search kernels").
//
// Under a concurrent writer (VectorMap read under a sequence lock) a load
// may observe a torn *set* of elements. The routines then guarantee only
// that they terminate, read indexes in [0, n) only, and return n, kNpos or
// an index < n; the caller's seqlock validation decides whether the answer
// stands.
#pragma once

#include <cstdint>

namespace sv::simd {

// Returned by find_le/find_ge/find_eq when no element qualifies.
inline constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

// The search tier, for reports (svbench's host block); one tier remains.
inline constexpr const char* kIsaName = "scalar";

namespace scalar {

// First index of a sorted run of n elements, read through load(i), whose
// element is > k (kUpper) or >= k (!kUpper); n if none. Branch-free
// narrowing (Khuong & Morin, "Array Layouts for Comparison-Based
// Searching", JEA 2017): each of the ceil(log2 n) steps picks the next base
// with a conditional move, so a random key mispredicts nothing, and one
// compare at the end finishes. Reads only indexes in [0, n), whatever the
// loaded values, so a speculative caller's torn reads stay in bounds.
template <bool kUpper, class Load, class K>
inline std::uint32_t bound(Load load, std::uint32_t n, K k) noexcept {
  const auto before = [&k](const K& x) { return kUpper ? x <= k : x < k; };
  if (n == 0) return 0;
  std::uint32_t base = 0;
  while (n > 1) {
    const std::uint32_t half = n / 2;
    base = before(load(base + half)) ? base + half : base;
    n -= half;
  }
  return base + before(load(base));
}

// First index with a[i] >= k (n if none).
template <class K>
inline std::uint32_t lower_bound(const K* a, std::uint32_t n, K k) noexcept {
  return bound<false>([a](std::uint32_t i) { return a[i]; }, n, k);
}

// First index with a[i] > k (n if none).
template <class K>
inline std::uint32_t upper_bound(const K* a, std::uint32_t n, K k) noexcept {
  return bound<true>([a](std::uint32_t i) { return a[i]; }, n, k);
}

// Index of the first of n elements, read through load(i), equal to k;
// kNpos if absent.
template <class Load, class K>
inline std::uint32_t find_eq(Load load, std::uint32_t n, K k) noexcept {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (load(i) == k) return i;
  }
  return kNpos;
}

// Index of the largest of n unsorted elements, read through load(i), that
// is <= k; kNpos if none. The best key so far stays in a local, so every
// element is loaded once.
template <class Load, class K>
inline std::uint32_t find_le(Load load, std::uint32_t n, K k) noexcept {
  std::uint32_t best = kNpos;
  K best_key{};
  for (std::uint32_t i = 0; i < n; ++i) {
    const K ki = load(i);
    if (ki <= k && (best == kNpos || ki > best_key)) {
      best = i;
      best_key = ki;
    }
  }
  return best;
}

// Index of the smallest of n unsorted elements, read through load(i), that
// is >= k; kNpos if none.
template <class Load, class K>
inline std::uint32_t find_ge(Load load, std::uint32_t n, K k) noexcept {
  std::uint32_t best = kNpos;
  K best_key{};
  for (std::uint32_t i = 0; i < n; ++i) {
    const K ki = load(i);
    if (ki >= k && (best == kNpos || ki < best_key)) {
      best = i;
      best_key = ki;
    }
  }
  return best;
}

}  // namespace scalar

}  // namespace sv::simd
