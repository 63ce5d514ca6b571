// Allocator-subsystem tests (src/alloc/): NodeLayout invariants (pinned
// with static_asserts), both NodeAllocator policies against their concept
// contract, slab-pool internals (size classes, magazine reuse, depot
// flushes, oversize fallback, byte accounting), cross-thread
// alloc-here/free-there flows (the racy path TSan hammers), pool-backed
// maps returning every byte at destruction even under LeakReclaimer (the
// property the ASan/LSan lane proves), and a sequential parity suite over
// the full 4-reclaimer x 2-allocator matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/node_layout.h"
#include "alloc/pool_allocator.h"
#include "common/hw.h"
#include "common/rng.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "lsan_guard.h"

namespace sv::alloc {
namespace {

// ---- NodeLayout --------------------------------------------------------------

// Pinned example: 40-byte header, 8-byte keys/values, cap 4.
// keys at 40, vals at 40 + 32 = 72, total = round64(72 + 32) = 128.
static_assert(NodeLayout::make(40, 8, 8, 8, 8, 4).keys_off == 40);
static_assert(NodeLayout::make(40, 8, 8, 8, 8, 4).vals_off == 72);
static_assert(NodeLayout::make(40, 8, 8, 8, 8, 4).bytes == 128);
// Alignment padding between header and keys, and between keys and values.
static_assert(NodeLayout::make(41, 8, 8, 8, 8, 2).keys_off == 48);
static_assert(NodeLayout::make(12, 4, 4, 8, 8, 3).vals_off % 8 == 0);
// Empty node still occupies one cache line.
static_assert(NodeLayout::make(1, 8, 8, 8, 8, 0).bytes == kCacheLineSize);
// Total is always a whole number of cache lines.
static_assert(NodeLayout::make(57, 8, 8, 8, 8, 129).bytes % kCacheLineSize ==
              0);

TEST(NodeLayout, InvariantsAcrossShapes) {
  for (std::uint32_t cap : {0u, 1u, 4u, 16u, 100u, 4096u}) {
    for (std::size_t hdr : {std::size_t{1}, std::size_t{40},
                            std::size_t{64}, std::size_t{100}}) {
      const NodeLayout l = NodeLayout::make(hdr, 8, 8, 8, 8, cap);
      EXPECT_GE(l.keys_off, hdr);
      EXPECT_EQ(l.keys_off % 8, 0u);
      EXPECT_GE(l.vals_off, l.keys_off + cap * 8);
      EXPECT_EQ(l.vals_off % 8, 0u);
      EXPECT_GE(l.bytes, l.vals_off + cap * 8);
      EXPECT_EQ(l.bytes % kCacheLineSize, 0u);
    }
  }
}

TEST(NodeLayout, OfMatchesMake) {
  struct Hdr {
    void* a;
    std::uint64_t b;
    std::uint32_t c;
  };
  const NodeLayout a =
      NodeLayout::of<Hdr, std::atomic<std::uint64_t>,
                     std::atomic<std::uint64_t>>(16);
  const NodeLayout b = NodeLayout::make(
      sizeof(Hdr), sizeof(std::atomic<std::uint64_t>),
      alignof(std::atomic<std::uint64_t>), sizeof(std::atomic<std::uint64_t>),
      alignof(std::atomic<std::uint64_t>), 16);
  EXPECT_EQ(a.keys_off, b.keys_off);
  EXPECT_EQ(a.vals_off, b.vals_off);
  EXPECT_EQ(a.bytes, b.bytes);
}

// ---- Size classes ------------------------------------------------------------

using Pool = PoolNodeAllocator;

static_assert(Pool::class_of(1) == 0);
static_assert(Pool::class_of(64) == 0);
static_assert(Pool::class_of(65) == 1);
static_assert(Pool::class_of(4096) == 63);
static_assert(Pool::class_of(4097) == 64);    // first pow2 class (8 KiB)
static_assert(Pool::class_of(8192) == 64);
static_assert(Pool::class_of(8193) == 65);
static_assert(Pool::class_of(256u << 10) ==
              static_cast<int>(Pool::kClassCount) - 1);
static_assert(Pool::class_of((256u << 10) + 1) == -1);  // oversize
static_assert(Pool::class_bytes(0) == 64);
static_assert(Pool::class_bytes(63) == 4096);
static_assert(Pool::class_bytes(64) == 8192);
static_assert(Pool::class_bytes(static_cast<int>(Pool::kClassCount) - 1) ==
              256u << 10);

TEST(PoolSizeClasses, ClassBytesCoversEverySize) {
  for (std::size_t b = 1; b <= (256u << 10); b += 37) {
    const int cls = Pool::class_of(b);
    ASSERT_GE(cls, 0) << b;
    EXPECT_GE(Pool::class_bytes(cls), b);
    // Tightness: the next smaller class would not fit.
    if (cls > 0) {
      EXPECT_LT(Pool::class_bytes(cls - 1), b);
    }
  }
}

// ---- MallocNodeAllocator -----------------------------------------------------

TEST(MallocNodeAllocator, AllocatesAlignedAndAccounts) {
  MallocNodeAllocator a;
  void* p = a.allocate(192);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize, 0u);
  std::memset(p, 0xab, 192);
  AllocatorStats s = a.stats();
  EXPECT_EQ(s.pool_hits, 0u);  // nothing is pooled
  EXPECT_EQ(s.pool_misses, 1u);
  EXPECT_EQ(s.live_bytes, 192u);
  a.deallocate(p, 192);
  EXPECT_EQ(a.stats().live_bytes, 0u);
}

// ---- PoolNodeAllocator -------------------------------------------------------

TEST(PoolNodeAllocator, AllocatesAlignedWritableBlocks) {
  Pool pool;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) {
    void* p = pool.allocate(256);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize, 0u);
    std::memset(p, i, 256);
    blocks.push_back(p);
  }
  // Blocks are distinct and their contents independent.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<unsigned char*>(blocks[i])[0],
              static_cast<unsigned char>(i));
    EXPECT_EQ(static_cast<unsigned char*>(blocks[i])[255],
              static_cast<unsigned char>(i));
  }
  for (void* p : blocks) pool.deallocate(p, 256);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  EXPECT_GE(pool.stats().slab_allocs, 1u);
  EXPECT_GT(pool.stats().arena_bytes, 0u);
}

TEST(PoolNodeAllocator, MagazineServesChurn) {
  Pool pool;
  // Warm the magazine, then churn alloc/free: everything after warmup must
  // be served thread-locally.
  void* warm = pool.allocate(512);
  pool.deallocate(warm, 512);
  constexpr int kChurn = 10000;
  for (int i = 0; i < kChurn; ++i) {
    void* p = pool.allocate(512);
    pool.deallocate(p, 512);
  }
  const AllocatorStats s = pool.stats();
  EXPECT_GE(s.pool_hits, static_cast<std::uint64_t>(kChurn));
  EXPECT_LE(s.pool_misses, 2u);
  EXPECT_EQ(s.magazine_frees, static_cast<std::uint64_t>(kChurn) + 1);
  EXPECT_EQ(s.depot_flushes, 0u);
  EXPECT_EQ(s.live_bytes, 0u);
  // The acceptance bar from ISSUE 5: >= 90% of frees absorbed by magazines
  // without a depot round-trip.
  EXPECT_GE(static_cast<double>(s.magazine_frees - s.depot_flushes),
            0.9 * static_cast<double>(s.magazine_frees));
}

TEST(PoolNodeAllocator, ReusesFreedBlocks) {
  Pool pool;
  void* a = pool.allocate(128);
  pool.deallocate(a, 128);
  void* b = pool.allocate(128);
  EXPECT_EQ(a, b);  // LIFO magazine: immediate reuse of the hot block
  pool.deallocate(b, 128);
}

TEST(PoolNodeAllocator, DistinctSizeClassesDoNotMix) {
  Pool pool;
  void* small = pool.allocate(64);
  void* large = pool.allocate(4096);
  ASSERT_NE(small, large);
  std::memset(small, 1, 64);
  std::memset(large, 2, 4096);
  EXPECT_EQ(static_cast<unsigned char*>(small)[63], 1);
  EXPECT_EQ(static_cast<unsigned char*>(large)[0], 2);
  pool.deallocate(small, 64);
  pool.deallocate(large, 4096);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
}

TEST(PoolNodeAllocator, OversizeFallback) {
  Pool pool;
  const std::size_t big = (256u << 10) + 1;
  void* p = pool.allocate(big);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize, 0u);
  std::memset(p, 0x5a, big);
  EXPECT_EQ(pool.stats().oversize_allocs, 1u);
  EXPECT_EQ(pool.stats().live_bytes, big);
  pool.deallocate(p, big);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  // A second oversize block left un-freed is still released by the
  // destructor (LSan proves it when this test runs in the ASan lane).
  void* leaked_to_pool = pool.allocate(big);
  std::memset(leaked_to_pool, 1, big);
}

TEST(PoolNodeAllocator, DestructorReleasesUnfreedBlocks) {
  // Blocks never handed back -- exactly what a LeakReclaimer does -- must
  // still be released wholesale with the arenas (LSan-verified).
  Pool pool;
  for (int i = 0; i < 1000; ++i) {
    void* p = pool.allocate(192);
    std::memset(p, i, 192);
  }
  EXPECT_GT(pool.stats().live_bytes, 0u);
}

TEST(PoolNodeAllocator, JumboClassGetsDedicatedArenaSpace) {
  // A class bigger than the default slab target must still carve (one block
  // per slab), including when it exceeds the remaining arena space.
  Pool pool;
  std::vector<void*> blocks;
  for (int i = 0; i < 3; ++i) {
    void* p = pool.allocate(256u << 10);
    std::memset(p, i, 256u << 10);
    blocks.push_back(p);
  }
  for (void* p : blocks) pool.deallocate(p, 256u << 10);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
  EXPECT_EQ(pool.stats().oversize_allocs, 0u);
}

TEST(PoolNodeAllocator, CrossThreadAllocHereFreeThere) {
  // Producer threads allocate, consumer threads free: blocks migrate
  // between thread magazines through the depot. This is the schedule the
  // TSan lane hammers for data races; the assertions below check the
  // byte accounting survives migration.
  Pool pool;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 4000;
  constexpr std::size_t kBytes = 320;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<void*> queue;
  std::atomic<int> produced{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kProducers; ++t) {
    threads.emplace_back([&, t] {
      sv::Xoshiro256 rng(t + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        void* p = pool.allocate(kBytes);
        std::memset(p, static_cast<int>(rng.next_below(256)), kBytes);
        // Count under the mutex, so no consumer can check the predicate
        // between the count and the wake-up, and wake every consumer
        // after the last block: each must see that production ended.
        bool last = false;
        {
          std::lock_guard<std::mutex> lk(mu);
          queue.push_back(p);
          last = produced.fetch_add(1) + 1 == kProducers * kPerProducer;
        }
        if (last) {
          cv.notify_all();
        } else {
          cv.notify_one();
        }
      }
    });
  }
  for (int t = 0; t < kConsumers; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        void* p = nullptr;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] {
            return !queue.empty() ||
                   produced.load() == kProducers * kPerProducer;
          });
          if (queue.empty()) return;
          p = queue.front();
          queue.pop_front();
        }
        pool.deallocate(p, kBytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(queue.empty());
  const AllocatorStats s = pool.stats();
  EXPECT_EQ(s.live_bytes, 0u);
  EXPECT_EQ(s.pool_hits + s.pool_misses,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(s.magazine_frees,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

// ---- Pool-backed maps --------------------------------------------------------

sv::core::Config SmallCfg() {
  sv::core::Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

// Churn a map hard enough to force splits, merges, and retirements, then
// destroy it. In the ASan lane LSan proves the pool returned every byte --
// including nodes the LeakReclaimer dropped on the floor.
template <class Map>
void churn_and_destroy() {
  Map m(SmallCfg());
  sv::Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(512);
    if (rng.next_below(2) == 0) {
      m.insert(k, k);
    } else {
      m.remove(k);
    }
  }
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  const AllocatorStats s = m.allocator_stats();
  EXPECT_GT(s.live_bytes, 0u);       // linked nodes are still out
  EXPECT_GT(s.pool_hits, 0u);        // churn hit the magazines
  EXPECT_GT(s.arena_bytes, 0u);
}

TEST(PoolBackedMap, HazardReclaimerReturnsEverything) {
  churn_and_destroy<sv::core::SkipVectorPool<std::uint64_t, std::uint64_t>>();
}

TEST(PoolBackedMap, LeakReclaimerStopsLeaking) {
  churn_and_destroy<
      sv::core::SkipVectorPoolLeak<std::uint64_t, std::uint64_t>>();
}

TEST(PoolBackedMap, EpochReclaimerReturnsEverything) {
  churn_and_destroy<
      sv::core::SkipVectorEpochPool<std::uint64_t, std::uint64_t>>();
}

TEST(PoolBackedMap, ConcurrentChurnHitsMagazines) {
  using Map = sv::core::SkipVectorPool<std::uint64_t, std::uint64_t>;
  Map m(SmallCfg());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      sv::Xoshiro256 rng(t + 11);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.next_below(1024);
        if (rng.next_below(2) == 0) {
          m.insert(k, k);
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  const AllocatorStats s = m.allocator_stats();
  // Steady-state churn is served overwhelmingly by the magazines.
  EXPECT_GT(s.pool_hits, s.pool_misses);
  EXPECT_GE(static_cast<double>(s.magazine_frees - s.depot_flushes),
            0.9 * static_cast<double>(s.magazine_frees));
}

// ---- 4-reclaimer x 2-allocator sequential parity -----------------------------

// The same deterministic single-threaded workload, checked against
// std::map, for every (reclaimer, allocator) combination -- including
// ImmediateReclaimer, which the concurrent matrix suite must exclude.
template <class Map>
void run_parity() {
  Map m(SmallCfg());
  std::map<std::uint64_t, std::uint64_t> oracle;
  sv::Xoshiro256 rng(1234);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t k = rng.next_below(700);
    const std::uint64_t v = static_cast<std::uint64_t>(i);
    switch (rng.next_below(4)) {
      case 0: {
        const bool ok = m.insert(k, v);
        EXPECT_EQ(ok, oracle.emplace(k, v).second);
        break;
      }
      case 1: {
        const bool ok = m.remove(k);
        EXPECT_EQ(ok, oracle.erase(k) == 1);
        break;
      }
      case 2: {
        const bool ok = m.update(k, v);
        auto it = oracle.find(k);
        EXPECT_EQ(ok, it != oracle.end());
        if (it != oracle.end()) it->second = v;
        break;
      }
      default: {
        const auto got = m.lookup(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> contents;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    contents.emplace_back(k, v);
  });
  ASSERT_EQ(contents.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : contents) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

template <class R, class A>
using ParityMap = sv::core::SkipVectorMap<std::uint64_t, std::uint64_t, R, A>;

TEST(AllocatorParity, HazardMalloc) {
  run_parity<ParityMap<sv::reclaim::HazardReclaimer, MallocNodeAllocator>>();
}
TEST(AllocatorParity, HazardPool) {
  run_parity<ParityMap<sv::reclaim::HazardReclaimer, PoolNodeAllocator>>();
}
TEST(AllocatorParity, EpochMalloc) {
  run_parity<ParityMap<sv::reclaim::EpochReclaimer, MallocNodeAllocator>>();
}
TEST(AllocatorParity, EpochPool) {
  run_parity<ParityMap<sv::reclaim::EpochReclaimer, PoolNodeAllocator>>();
}
TEST(AllocatorParity, LeakMalloc) {
  // Leaks by design on the malloc passthrough; keep LSan quiet for exactly
  // this combination. Every pool-backed variant runs fully leak-checked:
  // that is the point of the pool.
  const sv::test::LeakCheckDisabler no_leak_check;
  run_parity<ParityMap<sv::reclaim::LeakReclaimer, MallocNodeAllocator>>();
}
TEST(AllocatorParity, LeakPool) {
  run_parity<ParityMap<sv::reclaim::LeakReclaimer, PoolNodeAllocator>>();
}
TEST(AllocatorParity, ImmediateMalloc) {
  run_parity<ParityMap<sv::reclaim::ImmediateReclaimer, MallocNodeAllocator>>();
}
TEST(AllocatorParity, ImmediatePool) {
  run_parity<ParityMap<sv::reclaim::ImmediateReclaimer, PoolNodeAllocator>>();
}

// ---- sv::stats wiring --------------------------------------------------------

TEST(AllocStats, CountersFlowIntoMapRegistry) {
  using Map = sv::core::SkipVectorPool<std::uint64_t, std::uint64_t>;
  Map m(SmallCfg());
  for (std::uint64_t k = 0; k < 2000; ++k) m.insert(k, k);
  for (std::uint64_t k = 0; k < 2000; k += 2) m.remove(k);
  const sv::stats::Snapshot s = m.stats_registry().snapshot();
  if (sv::stats::kEnabled) {
    // Node traffic during operations lands in the map's registry. (The
    // constructor's head allocations happen outside any stats::Scope, so
    // kLiveBytes undercounts the allocator's own live_bytes by them --
    // the allocator stats are the precise source of truth.)
    EXPECT_GT(s[sv::stats::Counter::kPoolHits] +
                  s[sv::stats::Counter::kPoolMisses],
              0u);
    EXPECT_GT(s[sv::stats::Counter::kSlabAllocs], 0u);
    EXPECT_NE(s[sv::stats::Counter::kLiveBytes], 0u);
  } else {
    EXPECT_EQ(s.total(), 0u);
  }
}

}  // namespace
}  // namespace sv::alloc
