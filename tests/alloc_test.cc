// Allocator tests (src/alloc/): NodeLayout invariants (pinned with
// static_asserts), the map's size, MallocNodeAllocator's byte accounting,
// a sequential parity suite over the four reclaimers that also checks the
// live bytes svbench reads, and the allocation counters' path into the
// map's stats registry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <type_traits>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/node_layout.h"
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

// ---- Map size ---------------------------------------------------------------

// svbench ycsb-t moves with the map object's size; ROADMAP item 8 changes
// it on purpose, and nothing else should.
static_assert(sizeof(sv::core::SkipVector<std::uint64_t, std::uint64_t>) ==
              896);

// ---- MallocNodeAllocator -----------------------------------------------------

TEST(MallocNodeAllocator, AllocatesAlignedAndAccounts) {
  MallocNodeAllocator a;
  void* p = a.allocate(192);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize, 0u);
  std::memset(p, 0xab, 192);
  AllocatorStats s = a.stats();
  EXPECT_EQ(s.allocs, 1u);
  EXPECT_EQ(s.live_bytes, 192u);
  a.deallocate(p, 192);
  EXPECT_EQ(a.stats().live_bytes, 0u);
}

sv::core::Config SmallCfg() {
  sv::core::Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

// ---- Sequential parity over the four reclaimers -----------------------------

// The same deterministic single-threaded workload, checked against
// std::map, for every reclaimer -- including ImmediateReclaimer, which the
// concurrent matrix suite must exclude.
template <class R>
void run_parity() {
  sv::core::SkipVectorMap<std::uint64_t, std::uint64_t, R> m(SmallCfg());
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
  // svbench's bytes_per_key divides allocator_stats().live_bytes by the key
  // count. With frees immediate and no snapshot pinned (so no version
  // records), the live bytes are exactly the linked chunks.
  if constexpr (std::is_same_v<R, sv::reclaim::ImmediateReclaimer>) {
    EXPECT_EQ(m.allocator_stats().live_bytes, m.stats().bytes);
    m.clear();
    EXPECT_EQ(m.allocator_stats().live_bytes, m.stats().bytes);
  }
}

TEST(AllocatorParity, Hazard) {
  run_parity<sv::reclaim::HazardReclaimer>();
}
TEST(AllocatorParity, Epoch) {
  run_parity<sv::reclaim::EpochReclaimer>();
}
TEST(AllocatorParity, Leak) {
  // Leaks by design; keep LSan quiet for exactly this map.
  const sv::test::LeakCheckDisabler no_leak_check;
  run_parity<sv::reclaim::LeakReclaimer>();
}
TEST(AllocatorParity, Immediate) {
  run_parity<sv::reclaim::ImmediateReclaimer>();
}

// ---- sv::stats wiring --------------------------------------------------------

TEST(AllocStats, CountersFlowIntoMapRegistry) {
  sv::core::SkipVector<std::uint64_t, std::uint64_t> m(SmallCfg());
  for (std::uint64_t k = 0; k < 2000; ++k) m.insert(k, k);
  for (std::uint64_t k = 0; k < 2000; k += 2) m.remove(k);
  const sv::stats::Snapshot s = m.stats_registry().snapshot();
  if (sv::stats::kEnabled) {
    // Node traffic during operations lands in the map's registry. (The
    // constructor's head allocations happen outside any stats::Scope, so
    // kLiveBytes undercounts the allocator's own live_bytes by them --
    // the allocator stats are the precise source of truth.)
    EXPECT_GT(s[sv::stats::Counter::kPoolMisses], 0u);
    EXPECT_EQ(s[sv::stats::Counter::kPoolHits], 0u);
    EXPECT_NE(s[sv::stats::Counter::kLiveBytes], 0u);
  } else {
    EXPECT_EQ(s.total(), 0u);
  }
}

}  // namespace
}  // namespace sv::alloc
