// Hardware-related constants and small helpers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace sv {

// Destructive interference range. We avoid std::hardware_destructive_
// interference_size because GCC warns that its value is ABI-fragile.
inline constexpr std::size_t kCacheLineSize = 64;

// Pause hint for spin loops.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Serialized cross-thread timestamp for history recording (src/check/):
// invariant-TSC cycles on x86-64, fenced on both sides so the stamp cannot
// drift into the operation it brackets; steady_clock nanoseconds elsewhere.
// Values are comparable across threads but carry no fixed unit -- only the
// happens-before order of (response, invoke) pairs is consumed.
inline std::uint64_t tsc_now() noexcept {
#if defined(__x86_64__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Read-prefetch hint. Never faults, even on stale or concurrently-retired
// pointers, so it is safe to issue on a speculatively-loaded next/down
// pointer before the seqlock validation that proves the pointer was
// current (src/core/skip_vector.h descent loops). On x86-64 it is an asm
// statement rather than __builtin_prefetch: GCC 12 deletes a loop whose
// body is only __builtin_prefetch calls, which removed the chunk-arrival
// prefetch loop from most of its inlined call sites.
inline void prefetch_read(const void* p) noexcept {
#if defined(__x86_64__)
  asm volatile("prefetcht0 (%0)" : : "r"(p));
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

inline unsigned hardware_threads() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace sv
