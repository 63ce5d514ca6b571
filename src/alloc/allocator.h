// MallocNodeAllocator: how the skip vector obtains and returns the memory of
// its chunks and version records. Every map owns one instance; the reclaimer
// decides *when* a block may be freed, this class does the freeing and keeps
// the map's byte count.
//
// Deallocation is *sized*: callers pass the byte count they allocated with
// (the map recomputes it from the node header via alloc::NodeLayout, and a
// version record carries its own), so the map's live bytes are exact
// without a per-block header.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/hw.h"
#include "stats/stats.h"

namespace sv::alloc {

// Aggregate allocator counters. `live_bytes` is exact when the allocator is
// quiescent (transient snapshots may be mid-op).
struct AllocatorStats {
  std::uint64_t allocs = 0;      // node and record allocations
  std::uint64_t live_bytes = 0;  // bytes currently handed out

  AllocatorStats& operator+=(const AllocatorStats& o) noexcept {
    allocs += o.allocs;
    live_bytes += o.live_bytes;
    return *this;
  }
};

// sv::stats wiring. kLiveBytes is a *net* gauge counted through monotonic
// per-thread blocks: allocation adds +bytes, free adds the two's-complement
// of bytes, so the aggregated (mod 2^64) sum is the live total even when a
// block allocated on one thread is freed on another. Phase deltas
// (Snapshot::operator-) clamp at zero when a phase shrinks the footprint;
// see docs/OBSERVABILITY.md.
inline void count_alloc_bytes(std::size_t bytes) noexcept {
  stats::count(stats::Counter::kLiveBytes, static_cast<std::uint64_t>(bytes));
}
inline void count_free_bytes(std::size_t bytes) noexcept {
  stats::count(stats::Counter::kLiveBytes,
               ~static_cast<std::uint64_t>(bytes) + 1);
}

// Passthrough to the aligned global heap, plus byte/count accounting cheap
// enough to leave on (relaxed fetch_adds per node allocation -- node
// allocations are orders of magnitude rarer than map operations).
class MallocNodeAllocator {
 public:
  MallocNodeAllocator() = default;
  MallocNodeAllocator(const MallocNodeAllocator&) = delete;
  MallocNodeAllocator& operator=(const MallocNodeAllocator&) = delete;

  void* allocate(std::size_t bytes) {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    allocated_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    stats::count(stats::Counter::kPoolMisses);  // every one (stats.h)
    count_alloc_bytes(bytes);
    return ::operator new(bytes, std::align_val_t{kCacheLineSize});
  }

  void deallocate(void* p, std::size_t bytes) {
    freed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    count_free_bytes(bytes);
    ::operator delete(p, std::align_val_t{kCacheLineSize});
  }

  AllocatorStats stats() const {
    AllocatorStats s;
    s.allocs = allocs_.load(std::memory_order_relaxed);
    const std::uint64_t a = allocated_bytes_.load(std::memory_order_relaxed);
    const std::uint64_t f = freed_bytes_.load(std::memory_order_relaxed);
    s.live_bytes = a - f;  // mod 2^64; exact at quiescence
    return s;
  }

 private:
  alignas(kCacheLineSize) std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> allocated_bytes_{0};
  std::atomic<std::uint64_t> freed_bytes_{0};
};

}  // namespace sv::alloc
