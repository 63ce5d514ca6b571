// Compile-time-dispatched vector kernels for chunk search.
//
// The skip vector's locality argument (flat chunks instead of per-node
// pointer chasing) only pays off if intra-chunk search actually runs at
// memory speed. This header provides the search kernels VectorMap routes
// through:
//
//   sorted chunks    lower_bound / upper_bound  (branch-free narrowing + a
//                    vectorized counting scan of the final block; without
//                    vector code, scalar::bound's narrowing to the end)
//   unsorted chunks  find_le / find_ge / find_eq (one linear pass with a
//                    vector best-candidate accumulator instead of the O(T)
//                    scalar compare-and-branch scan -- the Fig. 7b pain
//                    point)
//
// ISA selection is purely compile-time, from feature macros:
//
//   SV_FORCE_SCALAR  -> scalar everywhere (escape hatch; CMake option)
//   __AVX2__         -> AVX2 kernels, u32 and u64
//   __SSE2__         -> SSE2 kernels, u32 only (SSE2 lacks 64-bit compare
//                       and blend; u64 takes the scalar kernels)
//   __aarch64__      -> NEON kernels, u32 and u64
//   otherwise        -> scalar
//
// There is no runtime dispatch: the default build (no -march flags on
// x86-64) compiles SSE2 kernels, and -DSV_MARCH_NATIVE=ON opts into the
// host ISA. vectorized_v<K> reports whether the dispatching frontends use
// vector code for key type K in this translation unit; kIsaName names the
// selected tier for reports and logs.
//
// Correctness contract: every kernel is element-exact against the
// sv::simd::scalar:: reference implementations (property-tested in
// tests/simd_test.cc). All kernels read the array exactly as plain memory.
// When the caller scans concurrently-mutated storage (VectorMap under a
// sequence lock), a torn or stale element may be observed; the kernels
// guarantee only that they (a) terminate, (b) touch nothing outside
// [first, first+n), and (c) return either kNpos or an index < n. Deciding
// whether the result is *valid* is the caller's job (seqlock validation --
// see the memory-model note in src/vectormap/vector_map.h).
//
// x86 intrinsics only provide signed comparisons; unsigned order is
// obtained by the usual sign-bias trick (x ^ 0x80..0 maps unsigned order
// onto signed order). NEON has native unsigned compares, so the aarch64
// kernels skip the bias.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(SV_FORCE_SCALAR)
#define SV_SIMD_ISA_SCALAR 1
#elif defined(__AVX2__)
#define SV_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define SV_SIMD_ISA_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define SV_SIMD_ISA_NEON 1
#include <arm_neon.h>
#else
#define SV_SIMD_ISA_SCALAR 1
#endif

namespace sv::simd {

// Returned by find_le/find_ge/find_eq when no element qualifies.
inline constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

// Key types the kernels accept at all (scalar included).
template <class K>
inline constexpr bool simd_key_v =
    std::is_same_v<K, std::uint32_t> || std::is_same_v<K, std::uint64_t>;

// Whether the dispatching frontends below use vector code for K under the
// ISA selected in this translation unit.
template <class K>
inline constexpr bool vectorized_v =
#if defined(SV_SIMD_ISA_AVX2) || defined(SV_SIMD_ISA_NEON)
    simd_key_v<K>;
#elif defined(SV_SIMD_ISA_SSE2)
    std::is_same_v<K, std::uint32_t>;
#else
    false;
#endif

inline constexpr const char* kIsaName =
#if defined(SV_SIMD_ISA_AVX2)
    "avx2";
#elif defined(SV_SIMD_ISA_SSE2)
    "sse2";
#elif defined(SV_SIMD_ISA_NEON)
    "neon";
#else
    "scalar";
#endif

// ---- Scalar reference kernels ----------------------------------------------
//
// Always compiled, whatever the ISA: they are the parity oracle for
// tests/simd_test.cc, the tail/fallback path of the vector kernels, and the
// baseline side of the bench/micro_primitives.cc kernel benches. bound() is
// also VectorMap's sorted-chunk search over relaxed atomic loads whenever it
// does not scan raw memory -- u64 keys in the default x86-64 build among
// them -- so it is the chunk search most builds run.

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

// Index of the first element equal to k, kNpos if absent.
template <class K>
inline std::uint32_t find_eq(const K* a, std::uint32_t n, K k) noexcept {
  for (std::uint32_t i = 0; i < n; ++i) {
    if (a[i] == k) return i;
  }
  return kNpos;
}

// Index of the largest element <= k in an unsorted array, kNpos if none.
template <class K>
inline std::uint32_t find_le(const K* a, std::uint32_t n, K k) noexcept {
  std::uint32_t best = kNpos;
  for (std::uint32_t i = 0; i < n; ++i) {
    const K ki = a[i];
    if (ki <= k && (best == kNpos || ki > a[best])) best = i;
  }
  return best;
}

// Index of the smallest element >= k in an unsorted array, kNpos if none.
template <class K>
inline std::uint32_t find_ge(const K* a, std::uint32_t n, K k) noexcept {
  std::uint32_t best = kNpos;
  for (std::uint32_t i = 0; i < n; ++i) {
    const K ki = a[i];
    if (ki >= k && (best == kNpos || ki < a[best])) best = i;
  }
  return best;
}

}  // namespace scalar

// ---- ISA kernels ------------------------------------------------------------
//
// Each tier implements, for its vectorized key types:
//   count_le(a, n, k)   -- |{i : a[i] <= k}| over a *sorted run* (used as the
//                          final block scan of the hybrid binary search; on
//                          a sorted run the count equals upper_bound)
//   count_lt(a, n, k)   -- same with <  (lower_bound)
//   find_eq(a, n, k)    -- first index equal to k (any order)
//   max_le_key / min_ge_key -- best qualifying *key value* of an unsorted
//                          scan (found flag out-param); the caller turns the
//                          winning key back into an index with find_eq.
// The two-pass shape of the unsorted search (value pass + find_eq pass)
// keeps the inner loop free of index bookkeeping; under concurrent
// mutation the second pass can miss the winning value, in which case the
// frontend returns kNpos and the caller's seqlock validation forces a
// retry.

#if defined(SV_SIMD_ISA_AVX2)

namespace detail {

inline constexpr std::uint64_t kBias64 = 0x8000000000000000ull;
inline constexpr std::uint32_t kBias32 = 0x80000000u;

// -- u64 (4 lanes) --

inline __m256i bias64(__m256i v) noexcept {
  return _mm256_xor_si256(v, _mm256_set1_epi64x(static_cast<long long>(kBias64)));
}

inline std::uint32_t count_le(const std::uint64_t* a, std::uint32_t n,
                              std::uint64_t k) noexcept {
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(k ^ kBias64));
  std::uint32_t cnt = 0;
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        bias64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    // le = !(v > k): count the gt lanes and subtract.
    const __m256i gt = _mm256_cmpgt_epi64(v, vk);
    cnt += 4u - static_cast<std::uint32_t>(
                    __builtin_popcount(_mm256_movemask_pd(
                        _mm256_castsi256_pd(gt))));
  }
  for (; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t count_lt(const std::uint64_t* a, std::uint32_t n,
                              std::uint64_t k) noexcept {
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(k ^ kBias64));
  std::uint32_t cnt = 0;
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        bias64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i lt = _mm256_cmpgt_epi64(vk, v);
    cnt += static_cast<std::uint32_t>(
        __builtin_popcount(_mm256_movemask_pd(_mm256_castsi256_pd(lt))));
  }
  for (; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t find_eq(const std::uint64_t* a, std::uint32_t n,
                             std::uint64_t k) noexcept {
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(k));
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const int m = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, vk)));
    if (m != 0) return i + static_cast<std::uint32_t>(__builtin_ctz(m));
  }
  for (; i < n; ++i) {
    if (a[i] == k) return i;
  }
  return kNpos;
}

// Largest key <= k. Lanes that fail the predicate are replaced by the
// biased value of 0 (the smallest biased value), and a separate any-mask
// accumulator disambiguates "no qualifying lane" from "0 was the best
// qualifying key".
inline std::uint64_t max_le_key(const std::uint64_t* a, std::uint32_t n,
                                std::uint64_t k, bool& found) noexcept {
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(k ^ kBias64));
  const __m256i sentinel =
      _mm256_set1_epi64x(static_cast<long long>(kBias64));  // biased(0)
  __m256i vbest = sentinel;
  __m256i vany = _mm256_setzero_si256();
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        bias64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i gt = _mm256_cmpgt_epi64(v, vk);
    // Qualifying lanes keep their value, others collapse to the sentinel.
    const __m256i cand = _mm256_blendv_epi8(v, sentinel, gt);
    vany = _mm256_or_si256(vany, _mm256_andnot_si256(gt, _mm256_set1_epi8(-1)));
    const __m256i better = _mm256_cmpgt_epi64(cand, vbest);
    vbest = _mm256_blendv_epi8(vbest, cand, better);
  }
  alignas(32) std::uint64_t lanes[4];
  alignas(32) std::uint64_t anys[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
  _mm256_store_si256(reinterpret_cast<__m256i*>(anys), vany);
  bool have = (anys[0] | anys[1] | anys[2] | anys[3]) != 0;
  // Unbias before the scalar reduce: biased lane values order correctly
  // only under signed comparison. The sentinel unbiases to 0, the
  // identity of unsigned max.
  std::uint64_t best = 0;
  for (const std::uint64_t l : lanes) {
    const std::uint64_t x = l ^ kBias64;
    if (x > best) best = x;
  }
  for (; i < n; ++i) {
    const std::uint64_t ki = a[i];
    if (ki <= k && (!have || ki > best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

// Smallest key >= k; sentinel is biased(max), mirror of max_le_key.
inline std::uint64_t min_ge_key(const std::uint64_t* a, std::uint32_t n,
                                std::uint64_t k, bool& found) noexcept {
  const __m256i vk = _mm256_set1_epi64x(static_cast<long long>(k ^ kBias64));
  const __m256i sentinel =
      _mm256_set1_epi64x(static_cast<long long>(~kBias64));  // biased(max)
  __m256i vbest = sentinel;
  __m256i vany = _mm256_setzero_si256();
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        bias64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i lt = _mm256_cmpgt_epi64(vk, v);
    const __m256i cand = _mm256_blendv_epi8(v, sentinel, lt);
    vany = _mm256_or_si256(vany, _mm256_andnot_si256(lt, _mm256_set1_epi8(-1)));
    const __m256i better = _mm256_cmpgt_epi64(vbest, cand);
    vbest = _mm256_blendv_epi8(vbest, cand, better);
  }
  alignas(32) std::uint64_t lanes[4];
  alignas(32) std::uint64_t anys[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
  _mm256_store_si256(reinterpret_cast<__m256i*>(anys), vany);
  bool have = (anys[0] | anys[1] | anys[2] | anys[3]) != 0;
  // Unbias before the scalar reduce (see max_le_key); the sentinel
  // unbiases to the all-ones key, the identity of unsigned min.
  std::uint64_t best = ~0ull;
  for (const std::uint64_t l : lanes) {
    const std::uint64_t x = l ^ kBias64;
    if (x < best) best = x;
  }
  for (; i < n; ++i) {
    const std::uint64_t ki = a[i];
    if (ki >= k && (!have || ki < best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

// -- u32 (8 lanes) --

inline __m256i bias32(__m256i v) noexcept {
  return _mm256_xor_si256(v, _mm256_set1_epi32(static_cast<int>(kBias32)));
}

inline std::uint32_t count_le(const std::uint32_t* a, std::uint32_t n,
                              std::uint32_t k) noexcept {
  const __m256i vk = _mm256_set1_epi32(static_cast<int>(k ^ kBias32));
  std::uint32_t cnt = 0;
  std::uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        bias32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i gt = _mm256_cmpgt_epi32(v, vk);
    cnt += 8u - static_cast<std::uint32_t>(
                    __builtin_popcount(_mm256_movemask_ps(
                        _mm256_castsi256_ps(gt))));
  }
  for (; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t count_lt(const std::uint32_t* a, std::uint32_t n,
                              std::uint32_t k) noexcept {
  const __m256i vk = _mm256_set1_epi32(static_cast<int>(k ^ kBias32));
  std::uint32_t cnt = 0;
  std::uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        bias32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i lt = _mm256_cmpgt_epi32(vk, v);
    cnt += static_cast<std::uint32_t>(
        __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(lt))));
  }
  for (; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t find_eq(const std::uint32_t* a, std::uint32_t n,
                             std::uint32_t k) noexcept {
  const __m256i vk = _mm256_set1_epi32(static_cast<int>(k));
  std::uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const int m = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vk)));
    if (m != 0) return i + static_cast<std::uint32_t>(__builtin_ctz(m));
  }
  for (; i < n; ++i) {
    if (a[i] == k) return i;
  }
  return kNpos;
}

inline std::uint32_t max_le_key(const std::uint32_t* a, std::uint32_t n,
                                std::uint32_t k, bool& found) noexcept {
  const __m256i vk = _mm256_set1_epi32(static_cast<int>(k ^ kBias32));
  const __m256i sentinel = _mm256_set1_epi32(static_cast<int>(kBias32));
  __m256i vbest = sentinel;
  __m256i vany = _mm256_setzero_si256();
  std::uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        bias32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i gt = _mm256_cmpgt_epi32(v, vk);
    const __m256i cand = _mm256_blendv_epi8(v, sentinel, gt);
    vany = _mm256_or_si256(vany, _mm256_andnot_si256(gt, _mm256_set1_epi8(-1)));
    const __m256i better = _mm256_cmpgt_epi32(cand, vbest);
    vbest = _mm256_blendv_epi8(vbest, cand, better);
  }
  alignas(32) std::uint32_t lanes[8];
  alignas(32) std::uint32_t anys[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
  _mm256_store_si256(reinterpret_cast<__m256i*>(anys), vany);
  std::uint32_t any_acc = 0;
  for (const std::uint32_t x : anys) any_acc |= x;
  bool have = any_acc != 0;
  // Unbias before the scalar reduce (biased values order correctly only
  // under signed comparison); the sentinel unbiases to 0.
  std::uint32_t best = 0;
  for (const std::uint32_t l : lanes) {
    const std::uint32_t x = l ^ kBias32;
    if (x > best) best = x;
  }
  for (; i < n; ++i) {
    const std::uint32_t ki = a[i];
    if (ki <= k && (!have || ki > best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

inline std::uint32_t min_ge_key(const std::uint32_t* a, std::uint32_t n,
                                std::uint32_t k, bool& found) noexcept {
  const __m256i vk = _mm256_set1_epi32(static_cast<int>(k ^ kBias32));
  const __m256i sentinel = _mm256_set1_epi32(static_cast<int>(~kBias32));
  __m256i vbest = sentinel;
  __m256i vany = _mm256_setzero_si256();
  std::uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        bias32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m256i lt = _mm256_cmpgt_epi32(vk, v);
    const __m256i cand = _mm256_blendv_epi8(v, sentinel, lt);
    vany = _mm256_or_si256(vany, _mm256_andnot_si256(lt, _mm256_set1_epi8(-1)));
    const __m256i better = _mm256_cmpgt_epi32(vbest, cand);
    vbest = _mm256_blendv_epi8(vbest, cand, better);
  }
  alignas(32) std::uint32_t lanes[8];
  alignas(32) std::uint32_t anys[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
  _mm256_store_si256(reinterpret_cast<__m256i*>(anys), vany);
  std::uint32_t any_acc = 0;
  for (const std::uint32_t x : anys) any_acc |= x;
  bool have = any_acc != 0;
  // Unbias before the scalar reduce; the sentinel unbiases to all-ones.
  std::uint32_t best = ~0u;
  for (const std::uint32_t l : lanes) {
    const std::uint32_t x = l ^ kBias32;
    if (x < best) best = x;
  }
  for (; i < n; ++i) {
    const std::uint32_t ki = a[i];
    if (ki >= k && (!have || ki < best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

}  // namespace detail

#elif defined(SV_SIMD_ISA_SSE2)

namespace detail {

inline constexpr std::uint32_t kBias32 = 0x80000000u;

// SSE2 has no blendv; synthesize it from the mask.
inline __m128i blend128(__m128i a, __m128i b, __m128i mask) noexcept {
  return _mm_or_si128(_mm_and_si128(mask, b), _mm_andnot_si128(mask, a));
}

inline __m128i bias32(__m128i v) noexcept {
  return _mm_xor_si128(v, _mm_set1_epi32(static_cast<int>(kBias32)));
}

inline std::uint32_t count_le(const std::uint32_t* a, std::uint32_t n,
                              std::uint32_t k) noexcept {
  const __m128i vk = _mm_set1_epi32(static_cast<int>(k ^ kBias32));
  std::uint32_t cnt = 0;
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        bias32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i gt = _mm_cmpgt_epi32(v, vk);
    cnt += 4u - static_cast<std::uint32_t>(
                    __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(gt))));
  }
  for (; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t count_lt(const std::uint32_t* a, std::uint32_t n,
                              std::uint32_t k) noexcept {
  const __m128i vk = _mm_set1_epi32(static_cast<int>(k ^ kBias32));
  std::uint32_t cnt = 0;
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        bias32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i lt = _mm_cmpgt_epi32(vk, v);
    cnt += static_cast<std::uint32_t>(
        __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(lt))));
  }
  for (; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t find_eq(const std::uint32_t* a, std::uint32_t n,
                             std::uint32_t k) noexcept {
  const __m128i vk = _mm_set1_epi32(static_cast<int>(k));
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const int m = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, vk)));
    if (m != 0) return i + static_cast<std::uint32_t>(__builtin_ctz(m));
  }
  for (; i < n; ++i) {
    if (a[i] == k) return i;
  }
  return kNpos;
}

inline std::uint32_t max_le_key(const std::uint32_t* a, std::uint32_t n,
                                std::uint32_t k, bool& found) noexcept {
  const __m128i vk = _mm_set1_epi32(static_cast<int>(k ^ kBias32));
  const __m128i sentinel = _mm_set1_epi32(static_cast<int>(kBias32));
  __m128i vbest = sentinel;
  __m128i vany = _mm_setzero_si128();
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        bias32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i gt = _mm_cmpgt_epi32(v, vk);
    const __m128i cand = blend128(v, sentinel, gt);
    vany = _mm_or_si128(vany, _mm_andnot_si128(gt, _mm_set1_epi8(-1)));
    const __m128i better = _mm_cmpgt_epi32(cand, vbest);
    vbest = blend128(vbest, cand, better);
  }
  alignas(16) std::uint32_t lanes[4];
  alignas(16) std::uint32_t anys[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vbest);
  _mm_store_si128(reinterpret_cast<__m128i*>(anys), vany);
  bool have = (anys[0] | anys[1] | anys[2] | anys[3]) != 0;
  // Unbias before the scalar reduce (biased values order correctly only
  // under signed comparison); the sentinel unbiases to 0.
  std::uint32_t best = 0;
  for (const std::uint32_t l : lanes) {
    const std::uint32_t x = l ^ kBias32;
    if (x > best) best = x;
  }
  for (; i < n; ++i) {
    const std::uint32_t ki = a[i];
    if (ki <= k && (!have || ki > best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

inline std::uint32_t min_ge_key(const std::uint32_t* a, std::uint32_t n,
                                std::uint32_t k, bool& found) noexcept {
  const __m128i vk = _mm_set1_epi32(static_cast<int>(k ^ kBias32));
  const __m128i sentinel = _mm_set1_epi32(static_cast<int>(~kBias32));
  __m128i vbest = sentinel;
  __m128i vany = _mm_setzero_si128();
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        bias32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i lt = _mm_cmpgt_epi32(vk, v);
    const __m128i cand = blend128(v, sentinel, lt);
    vany = _mm_or_si128(vany, _mm_andnot_si128(lt, _mm_set1_epi8(-1)));
    const __m128i better = _mm_cmpgt_epi32(vbest, cand);
    vbest = blend128(vbest, cand, better);
  }
  alignas(16) std::uint32_t lanes[4];
  alignas(16) std::uint32_t anys[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vbest);
  _mm_store_si128(reinterpret_cast<__m128i*>(anys), vany);
  bool have = (anys[0] | anys[1] | anys[2] | anys[3]) != 0;
  // Unbias before the scalar reduce; the sentinel unbiases to all-ones.
  std::uint32_t best = ~0u;
  for (const std::uint32_t l : lanes) {
    const std::uint32_t x = l ^ kBias32;
    if (x < best) best = x;
  }
  for (; i < n; ++i) {
    const std::uint32_t ki = a[i];
    if (ki >= k && (!have || ki < best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

// u64: not vectorized under SSE2 (no 64-bit compare); scalar pass-through so
// the frontends below compile uniformly.
inline std::uint32_t count_le(const std::uint64_t* a, std::uint32_t n,
                              std::uint64_t k) noexcept {
  std::uint32_t cnt = 0;
  for (std::uint32_t i = 0; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}
inline std::uint32_t count_lt(const std::uint64_t* a, std::uint32_t n,
                              std::uint64_t k) noexcept {
  std::uint32_t cnt = 0;
  for (std::uint32_t i = 0; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}

}  // namespace detail

#elif defined(SV_SIMD_ISA_NEON)

namespace detail {

// -- u32 (4 lanes; native unsigned compares, no bias needed) --

inline std::uint32_t count_le(const std::uint32_t* a, std::uint32_t n,
                              std::uint32_t k) noexcept {
  const uint32x4_t vk = vdupq_n_u32(k);
  uint32x4_t acc = vdupq_n_u32(0);
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t le = vcleq_u32(vld1q_u32(a + i), vk);
    acc = vaddq_u32(acc, vshrq_n_u32(le, 31));  // each true lane adds 1
  }
  std::uint32_t cnt = vaddvq_u32(acc);
  for (; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t count_lt(const std::uint32_t* a, std::uint32_t n,
                              std::uint32_t k) noexcept {
  const uint32x4_t vk = vdupq_n_u32(k);
  uint32x4_t acc = vdupq_n_u32(0);
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t lt = vcltq_u32(vld1q_u32(a + i), vk);
    acc = vaddq_u32(acc, vshrq_n_u32(lt, 31));
  }
  std::uint32_t cnt = vaddvq_u32(acc);
  for (; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t find_eq(const std::uint32_t* a, std::uint32_t n,
                             std::uint32_t k) noexcept {
  const uint32x4_t vk = vdupq_n_u32(k);
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t eq = vceqq_u32(vld1q_u32(a + i), vk);
    if (vmaxvq_u32(eq) != 0) {
      alignas(16) std::uint32_t lanes[4];
      vst1q_u32(lanes, eq);
      for (std::uint32_t j = 0; j < 4; ++j) {
        if (lanes[j] != 0) return i + j;
      }
    }
  }
  for (; i < n; ++i) {
    if (a[i] == k) return i;
  }
  return kNpos;
}

inline std::uint32_t max_le_key(const std::uint32_t* a, std::uint32_t n,
                                std::uint32_t k, bool& found) noexcept {
  const uint32x4_t vk = vdupq_n_u32(k);
  uint32x4_t vbest = vdupq_n_u32(0);
  uint32x4_t vany = vdupq_n_u32(0);
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t v = vld1q_u32(a + i);
    const uint32x4_t le = vcleq_u32(v, vk);
    vany = vorrq_u32(vany, le);
    // Failing lanes collapse to 0, the identity of unsigned max.
    vbest = vmaxq_u32(vbest, vandq_u32(v, le));
  }
  bool have = vmaxvq_u32(vany) != 0;
  std::uint32_t best = vmaxvq_u32(vbest);
  for (; i < n; ++i) {
    const std::uint32_t ki = a[i];
    if (ki <= k && (!have || ki > best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

inline std::uint32_t min_ge_key(const std::uint32_t* a, std::uint32_t n,
                                std::uint32_t k, bool& found) noexcept {
  const uint32x4_t vk = vdupq_n_u32(k);
  uint32x4_t vbest = vdupq_n_u32(0xFFFFFFFFu);
  uint32x4_t vany = vdupq_n_u32(0);
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t v = vld1q_u32(a + i);
    const uint32x4_t ge = vcgeq_u32(v, vk);
    vany = vorrq_u32(vany, ge);
    // Failing lanes collapse to all-ones, the identity of unsigned min.
    vbest = vminq_u32(vbest, vorrq_u32(v, vmvnq_u32(ge)));
  }
  bool have = vmaxvq_u32(vany) != 0;
  std::uint32_t best = vminvq_u32(vbest);
  for (; i < n; ++i) {
    const std::uint32_t ki = a[i];
    if (ki >= k && (!have || ki < best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

// -- u64 (2 lanes; vcgtq_u64 exists, horizontal ops do not -> extract) --

// arm_neon.h has no 64-bit vector NOT; synthesize from the 32-bit one.
inline uint64x2_t not_u64(uint64x2_t v) noexcept {
  return vreinterpretq_u64_u32(vmvnq_u32(vreinterpretq_u32_u64(v)));
}

inline std::uint32_t count_le(const std::uint64_t* a, std::uint32_t n,
                              std::uint64_t k) noexcept {
  const uint64x2_t vk = vdupq_n_u64(k);
  uint64x2_t acc = vdupq_n_u64(0);
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t le = vcleq_u64(vld1q_u64(a + i), vk);
    acc = vaddq_u64(acc, vshrq_n_u64(le, 63));
  }
  std::uint32_t cnt = static_cast<std::uint32_t>(vgetq_lane_u64(acc, 0) +
                                                 vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t count_lt(const std::uint64_t* a, std::uint32_t n,
                              std::uint64_t k) noexcept {
  const uint64x2_t vk = vdupq_n_u64(k);
  uint64x2_t acc = vdupq_n_u64(0);
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t lt = vcltq_u64(vld1q_u64(a + i), vk);
    acc = vaddq_u64(acc, vshrq_n_u64(lt, 63));
  }
  std::uint32_t cnt = static_cast<std::uint32_t>(vgetq_lane_u64(acc, 0) +
                                                 vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}

inline std::uint32_t find_eq(const std::uint64_t* a, std::uint32_t n,
                             std::uint64_t k) noexcept {
  const uint64x2_t vk = vdupq_n_u64(k);
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(a + i), vk);
    if (vgetq_lane_u64(eq, 0) != 0) return i;
    if (vgetq_lane_u64(eq, 1) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (a[i] == k) return i;
  }
  return kNpos;
}

inline std::uint64_t max_le_key(const std::uint64_t* a, std::uint32_t n,
                                std::uint64_t k, bool& found) noexcept {
  const uint64x2_t vk = vdupq_n_u64(k);
  uint64x2_t vbest = vdupq_n_u64(0);
  uint64x2_t vany = vdupq_n_u64(0);
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(a + i);
    const uint64x2_t le = vcleq_u64(v, vk);
    vany = vorrq_u64(vany, le);
    const uint64x2_t cand = vandq_u64(v, le);
    // No vmaxq_u64: blend with the per-lane gt mask instead.
    vbest = vbslq_u64(vcgtq_u64(cand, vbest), cand, vbest);
  }
  bool have = (vgetq_lane_u64(vany, 0) | vgetq_lane_u64(vany, 1)) != 0;
  const std::uint64_t l0 = vgetq_lane_u64(vbest, 0);
  const std::uint64_t l1 = vgetq_lane_u64(vbest, 1);
  std::uint64_t best = l0 > l1 ? l0 : l1;
  for (; i < n; ++i) {
    const std::uint64_t ki = a[i];
    if (ki <= k && (!have || ki > best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

inline std::uint64_t min_ge_key(const std::uint64_t* a, std::uint32_t n,
                                std::uint64_t k, bool& found) noexcept {
  const uint64x2_t vk = vdupq_n_u64(k);
  uint64x2_t vbest = vdupq_n_u64(~0ull);
  uint64x2_t vany = vdupq_n_u64(0);
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vld1q_u64(a + i);
    const uint64x2_t ge = vcgeq_u64(v, vk);
    vany = vorrq_u64(vany, ge);
    const uint64x2_t cand = vorrq_u64(v, not_u64(ge));
    vbest = vbslq_u64(vcgtq_u64(vbest, cand), cand, vbest);
  }
  bool have = (vgetq_lane_u64(vany, 0) | vgetq_lane_u64(vany, 1)) != 0;
  const std::uint64_t l0 = vgetq_lane_u64(vbest, 0);
  const std::uint64_t l1 = vgetq_lane_u64(vbest, 1);
  std::uint64_t best = l0 < l1 ? l0 : l1;
  for (; i < n; ++i) {
    const std::uint64_t ki = a[i];
    if (ki >= k && (!have || ki < best)) {
      best = ki;
      have = true;
    }
  }
  found = have;
  return best;
}

}  // namespace detail

#else  // scalar tier

namespace detail {

// Never selected (vectorized_v is false for every key type here), but the
// dispatching frontends name these in their discarded constexpr branches,
// so the declarations must exist in every tier.
template <class K>
inline std::uint32_t count_le(const K* a, std::uint32_t n, K k) noexcept {
  std::uint32_t cnt = 0;
  for (std::uint32_t i = 0; i < n; ++i) cnt += a[i] <= k ? 1u : 0u;
  return cnt;
}
template <class K>
inline std::uint32_t count_lt(const K* a, std::uint32_t n, K k) noexcept {
  std::uint32_t cnt = 0;
  for (std::uint32_t i = 0; i < n; ++i) cnt += a[i] < k ? 1u : 0u;
  return cnt;
}
template <class K>
inline std::uint32_t find_eq(const K* a, std::uint32_t n, K k) noexcept {
  return scalar::find_eq(a, n, k);
}
template <class K>
inline K max_le_key(const K* a, std::uint32_t n, K k, bool& found) noexcept {
  const std::uint32_t i = scalar::find_le(a, n, k);
  found = i != kNpos;
  return found ? a[i] : K{};
}
template <class K>
inline K min_ge_key(const K* a, std::uint32_t n, K k, bool& found) noexcept {
  const std::uint32_t i = scalar::find_ge(a, n, k);
  found = i != kNpos;
  return found ? a[i] : K{};
}

}  // namespace detail

#endif  // ISA kernels

// ---- Dispatching frontends --------------------------------------------------

// Below this length the hybrid sorted search switches from branchless binary
// narrowing to a single vectorized counting pass; on a sorted run of <= 64
// elements (<= 8 cache lines of u64) the linear count is cheaper than the
// remaining log2 steps' dependent loads.
inline constexpr std::uint32_t kSortedScanCutoff = 64;

// First index with a[i] >= k in a sorted array, n if none.
template <class K>
inline std::uint32_t lower_bound(const K* a, std::uint32_t n, K k) noexcept {
  static_assert(simd_key_v<K>);
  if constexpr (vectorized_v<K>) {
    std::uint32_t lo = 0;
    std::uint32_t len = n;
    while (len > kSortedScanCutoff) {
      const std::uint32_t half = len / 2;
      const bool le = a[lo + half - 1] < k;
      lo = le ? lo + half : lo;
      len = le ? len - half : half;
    }
    return lo + detail::count_lt(a + lo, len, k);
  } else {
    return scalar::lower_bound(a, n, k);
  }
}

// First index with a[i] > k in a sorted array, n if none.
template <class K>
inline std::uint32_t upper_bound(const K* a, std::uint32_t n, K k) noexcept {
  static_assert(simd_key_v<K>);
  if constexpr (vectorized_v<K>) {
    std::uint32_t lo = 0;
    std::uint32_t len = n;
    while (len > kSortedScanCutoff) {
      const std::uint32_t half = len / 2;
      const bool le = a[lo + half - 1] <= k;
      lo = le ? lo + half : lo;
      len = le ? len - half : half;
    }
    return lo + detail::count_le(a + lo, len, k);
  } else {
    return scalar::upper_bound(a, n, k);
  }
}

// First index with a[i] == k (any order), kNpos if absent.
template <class K>
inline std::uint32_t find_eq(const K* a, std::uint32_t n, K k) noexcept {
  static_assert(simd_key_v<K>);
  if constexpr (vectorized_v<K>) {
    return detail::find_eq(a, n, k);
  } else {
    return scalar::find_eq(a, n, k);
  }
}

// Index of the largest element <= k in an unsorted array, kNpos if none.
// Two passes: a vector max over the qualifying values, then find_eq to
// recover the index. Under concurrent mutation the second pass can miss;
// the result is then kNpos, never a wrong index -- the caller's seqlock
// validation rejects the attempt either way.
template <class K>
inline std::uint32_t find_le(const K* a, std::uint32_t n, K k) noexcept {
  static_assert(simd_key_v<K>);
  if constexpr (vectorized_v<K>) {
    bool found = false;
    const K best = detail::max_le_key(a, n, k, found);
    if (!found) return kNpos;
    return detail::find_eq(a, n, best);
  } else {
    return scalar::find_le(a, n, k);
  }
}

// Index of the smallest element >= k in an unsorted array, kNpos if none.
template <class K>
inline std::uint32_t find_ge(const K* a, std::uint32_t n, K k) noexcept {
  static_assert(simd_key_v<K>);
  if constexpr (vectorized_v<K>) {
    bool found = false;
    const K best = detail::min_ge_key(a, n, k, found);
    if (!found) return kNpos;
    return detail::find_eq(a, n, best);
  } else {
    return scalar::find_ge(a, n, k);
  }
}

}  // namespace sv::simd
