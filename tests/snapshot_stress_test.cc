// Snapshot-vs-writer and batch-atomicity stress, executed identically
// across every reclamation policy (hazard pointers, epochs, leak) crossed
// with both node allocators (malloc passthrough, slab pool).
//
// The properties under test (docs/SNAPSHOTS.md):
//   1. Wait-freedom: a versioned snapshot scan completes with ZERO
//      scan-phase restarts no matter how hard writers churn the scanned
//      range (kSnapshotScanRestarts stays 0; only the index-layer descent
//      may retry, and only against structural churn).
//   2. Stability: every mapping a pinned view returns is exactly the state
//      at its commit version -- writers that overwrite, erase, split or
//      merge after the pin are invisible.
//   3. Batch atomicity: apply_batch flips a batch-wide invariant in one
//      step; no snapshot, at any version, observes a mixed state.
//   4. Record lifetime: a chain walk parked across a fold and the prune
//      that detaches its chain still reads live records (the deterministic
//      fault-injection cases at the end).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"
#include "lsan_guard.h"

namespace sv::core {
namespace {

using sv::test::LeakCheckDisabler;

template <class R, class A = alloc::MallocNodeAllocator>
struct Policy {
  using Reclaimer = R;
  using Alloc = A;
};

using Policies =
    testing::Types<Policy<reclaim::HazardReclaimer>,
                   Policy<reclaim::EpochReclaimer>,
                   Policy<reclaim::LeakReclaimer>,
                   Policy<reclaim::HazardReclaimer, alloc::PoolNodeAllocator>,
                   Policy<reclaim::EpochReclaimer, alloc::PoolNodeAllocator>,
                   Policy<reclaim::LeakReclaimer, alloc::PoolNodeAllocator>>;

template <class P>
class SnapshotStressTest : public testing::Test {
 protected:
  using Map =
      SkipVectorMap<std::uint64_t, std::uint64_t, typename P::Reclaimer,
                    typename P::Alloc>;

  static constexpr bool kLeaksByDesign =
      std::is_same_v<typename P::Reclaimer, reclaim::LeakReclaimer> &&
      !P::Alloc::kPooled;

  // Covers the test body's thread; workers construct their own.
  const LeakCheckDisabler body_guard_{kLeaksByDesign};

  // Small chunks: maximum structural churn (splits/merges) per op.
  static Config Cfg() {
    Config c;
    c.layer_count = 5;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    return c;
  }
};

TYPED_TEST_SUITE(SnapshotStressTest, Policies);

// Writers churn [0, kRange) with the full mutation surface while snapshot
// readers continuously pin views and scan. Every scan is checked for
// internal consistency (values stamped with their key) and the map's
// counters for the wait-freedom invariant.
TYPED_TEST(SnapshotStressTest, ScansNeverRestartUnderWriteStorm) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kRange = 512;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> scans{0};

  for (std::uint64_t k = 0; k < kRange; k += 2) {
    ASSERT_TRUE(m.insert(k, k << 8));
  }

  std::vector<std::thread> threads;
  // 3 writers: inserts, removes, updates, batches -- heavy split/merge.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(100 + t);
      using Op = typename TestFixture::Map::BatchOp;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kRange);
        switch (rng.next_below(6)) {
          case 0:
          case 1:
            m.insert(k, k << 8);
            break;
          case 2:
            m.remove(k);
            break;
          case 3:
            m.update(k, k << 8);
            break;
          case 4: {
            std::vector<Op> ops;
            for (int b = 0; b < 4; ++b) {
              const std::uint64_t bk = rng.next_below(kRange);
              if (rng.next_below(2) == 0) {
                ops.push_back(Op::put(bk, bk << 8));
              } else {
                ops.push_back(Op::remove(bk));
              }
            }
            m.apply_batch(ops);
            break;
          }
          default:
            m.range_transform(k, k + 8, [](std::uint64_t tk, std::uint64_t) {
              return tk << 8;
            });
            break;
        }
      }
    });
  }
  // 2 snapshot readers: values must be self-consistent (stamped by key).
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(200 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = rng.next_below(kRange);
        const std::uint64_t hi = lo + rng.next_below(64);
        auto view = m.snapshot_at();
        std::uint64_t prev = 0;
        bool first = true;
        m.range_for_each_at(view, lo, hi,
                            [&](std::uint64_t k, std::uint64_t v) {
                              if (v != k << 8) errors.fetch_add(1);
                              if (k < lo || k > hi) errors.fetch_add(1);
                              if (!first && k <= prev) errors.fetch_add(1);
                              prev = k;
                              first = false;
                            });
        scans.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
  const stats::Snapshot s = m.stats_registry().snapshot();
  if constexpr (stats::kEnabled) {
    // The acceptance invariant: the versioned data-layer walk NEVER
    // restarts, no matter the write mix. (Per-chunk re-reads and descent
    // retries are bounded and expected; full scan restarts are not.)
    EXPECT_EQ(s[stats::Counter::kSnapshotScanRestarts], 0u);
    EXPECT_GT(s[stats::Counter::kSnapshotScans], 0u);
    EXPECT_GT(s[stats::Counter::kVersionRecords], 0u);
  }
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

// Batch atomicity: the map always holds a complete "generation" -- every
// key in [0, kKeys) mapped to the same generation stamp. Writers advance
// the generation with one apply_batch; snapshot readers at ANY version must
// see exactly one generation across the whole range. A torn batch (some
// keys old-gen, some new) is a violation regardless of version.
TYPED_TEST(SnapshotStressTest, BatchesAreAtomicUnderSnapshots) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kKeys = 96;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> torn{0};

  using Op = typename TestFixture::Map::BatchOp;
  {
    std::vector<Op> init;
    for (std::uint64_t k = 0; k < kKeys; ++k) init.push_back(Op::put(k, 0));
    ASSERT_EQ(m.apply_batch(init), kKeys);
  }

  std::vector<std::thread> threads;
  // One batch writer advancing the generation (single writer: generations
  // are strictly ordered, so any mixed scan is unambiguously a torn batch).
  threads.emplace_back([&] {
    LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
    for (std::uint64_t gen = 1; !stop.load(std::memory_order_relaxed);
         ++gen) {
      std::vector<Op> ops;
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        ops.push_back(Op::put(k, gen));
      }
      m.apply_batch(ops);
    }
  });
  // Noise writers OUTSIDE the generation range: force splits/merges of the
  // chunks holding generation keys without touching their values.
  threads.emplace_back([&] {
    LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
    Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = kKeys + rng.next_below(256);
      if (rng.next_below(2) == 0) {
        m.insert(k, k);
      } else {
        m.remove(k);
      }
    }
  });
  // Snapshot readers: a scan of [0, kKeys) must return kKeys mappings all
  // carrying one single generation value.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = m.snapshot(0, kKeys - 1);
        if (snap.size() != kKeys) {
          errors.fetch_add(1);
          continue;
        }
        const std::uint64_t gen = snap.front().second;
        for (const auto& [k, v] : snap) {
          if (v != gen) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0u) << "snapshot returned an incomplete key set";
  EXPECT_EQ(torn.load(), 0u) << "observed a partially applied batch";
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

// Pinned views stay stable across arbitrarily much later churn, and many
// concurrently pinned views each resolve their own version.
TYPED_TEST(SnapshotStressTest, PinnedViewsSurviveChurn) {
  typename TestFixture::Map m(TestFixture::Cfg());
  LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
  constexpr std::uint64_t kRange = 256;
  for (std::uint64_t k = 0; k < kRange; ++k) ASSERT_TRUE(m.insert(k, 1));

  auto v1 = m.snapshot_at();
  ASSERT_TRUE(v1.versioned());
  // Concurrent churn between the pins: removes, re-inserts, overwrites.
  {
    std::vector<std::thread> churn;
    for (int t = 0; t < 3; ++t) {
      churn.emplace_back([&, t] {
        LeakCheckDisabler tguard(TestFixture::kLeaksByDesign);
        Xoshiro256 rng(300 + t);
        for (int i = 0; i < 20'000; ++i) {
          const std::uint64_t k = rng.next_below(kRange);
          switch (rng.next_below(3)) {
            case 0: m.remove(k); break;
            case 1: m.insert(k, 2); break;
            default: m.update(k, 2); break;
          }
        }
      });
    }
    for (auto& th : churn) th.join();
  }
  auto v2 = m.snapshot_at();
  ASSERT_TRUE(v2.versioned());
  // Settle the live map to a third, known state.
  for (std::uint64_t k = 0; k < kRange; ++k) {
    m.insert(k, 3);
    m.update(k, 3);
  }

  // v1 must read exactly the initial state: all kRange keys at value 1.
  std::uint64_t n1 = 0, bad1 = 0;
  m.range_for_each_at(v1, 0, kRange - 1,
                      [&](std::uint64_t, std::uint64_t v) {
                        ++n1;
                        bad1 += v != 1 ? 1 : 0;
                      });
  EXPECT_EQ(n1, kRange);
  EXPECT_EQ(bad1, 0u);
  // v2 sees only values from {1, 2} (churn values), never 3.
  std::uint64_t bad2 = 0;
  m.range_for_each_at(v2, 0, kRange - 1,
                      [&](std::uint64_t, std::uint64_t v) {
                        bad2 += (v != 1 && v != 2) ? 1 : 0;
                      });
  EXPECT_EQ(bad2, 0u);
  // The live map is at state 3 everywhere.
  std::uint64_t bad3 = 0;
  m.range_for_each(0, kRange - 1, [&](std::uint64_t, std::uint64_t v) {
    bad3 += v != 3 ? 1 : 0;
  });
  EXPECT_EQ(bad3, 0u);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

// Registry exhaustion degrades gracefully: view kSlots+1 falls back to the
// locked path (unversioned) and still returns a consistent result.
TYPED_TEST(SnapshotStressTest, RegistryFullFallsBackUnversioned) {
  typename TestFixture::Map m(TestFixture::Cfg());
  LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
  for (std::uint64_t k = 0; k < 32; ++k) ASSERT_TRUE(m.insert(k, k));

  using View = typename TestFixture::Map::SnapshotView;
  std::vector<View> held;
  for (std::size_t i = 0; i < mvcc::SnapshotRegistry::kSlots; ++i) {
    held.push_back(m.snapshot_at());
    ASSERT_TRUE(held.back().versioned()) << i;
  }
  auto extra = m.snapshot_at();
  EXPECT_FALSE(extra.versioned());
  std::size_t n = m.range_for_each_at(extra, 0, 100,
                                      [](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(n, 32u);  // locked fallback still works
  held.clear();       // releases every slot
  auto again = m.snapshot_at();
  EXPECT_TRUE(again.versioned());
}

// ---- Fault injection: a chain walk parked across a fold and its prune ------

using debug::FaultInjector;
using debug::Point;
using HitSnapshot =
    std::array<std::uint64_t, static_cast<std::size_t>(Point::kCount)>;
using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// Two layers, chunk capacity 8: a tall insert splits its floor chunk on
// demand, and an orphan merges into its left neighbour at combined size < 7.
Config InjectionCfg() {
  Config c;
  c.layer_count = 2;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

// Updates k `records` times, each under a fresh pin that needs the
// pre-image: every update pushes one record onto k's chunk chain.
template <class Map>
void GrowChain(Map& m, std::uint64_t k, std::uint64_t records) {
  for (std::uint64_t i = 1; i <= records; ++i) {
    auto pin = m.snapshot_at();
    EXPECT_TRUE(m.update(k, k + i));
  }
}

// Tall inserts of kRetiringSplits ascending keys from 100, above every other
// key. Each splits the last chunk, whose chain (copies made by the split
// before) reaches below the pin, so each fold's prune retires that chunk's
// old chain: more retirements than two advance periods of the record domain
// (EpochDomain advances every 128). Were a parked walk not pinned, the epoch
// would pass it and free the chain it is reading.
constexpr std::uint64_t kRetiringSplits = 300;

template <class Map>
void RetireChains(Map& m) {
  for (std::uint64_t k = 100; k < 100 + kRetiringSplits; ++k) {
    EXPECT_TRUE(m.insert_with_height(k, k, 1));
  }
}

struct Parked {
  Pairs out;          // what the scan emitted
  HitSnapshot trace;  // injection-point hits during the scan
};

// Scans the whole map at `view`, parking the scan at its first chain walk
// (chain head loaded, no record read yet) while `writer` runs on another
// thread.
template <class Map, class Writer>
Parked ParkedScan(Map& m, const typename Map::SnapshotView& view,
                  Writer writer) {
  FaultInjector::instance().clear();
  FaultInjector::instance().set_handler([&](Point p, std::uint64_t hit) {
    if (p != Point::kVersionWalk || hit != 1) return;
    std::thread t(writer);
    t.join();
  });
  Parked r;
  m.range_for_each_at(view, 0, 1000, [&](std::uint64_t k, std::uint64_t v) {
    r.out.emplace_back(k, v);
  });
  r.trace = FaultInjector::instance().hit_snapshot();
  FaultInjector::instance().clear();
  return r;
}

// The parked walk stands on the chunk holding 10..40, whose chain has five
// records. A split at 25 prepends five copies per side, and its prune
// detaches the old chain under the walk. Three more splits inside the old
// key range, then RetireChains, each retire another old chain.
TYPED_TEST(SnapshotStressTest, ChainWalkSurvivesSplitFold) {
  constexpr bool kLeaks = TestFixture::kLeaksByDesign;
  auto run_once = [] {
    typename TestFixture::Map m(InjectionCfg());
    for (std::uint64_t k : {10, 20, 30, 40}) {
      EXPECT_TRUE(m.insert_with_height(k, k, 0));
    }
    auto view = m.snapshot_at();
    EXPECT_TRUE(view.versioned());
    GrowChain(m, 10, 5);
    const auto [out, trace] = ParkedScan(m, view, [&m] {
      LeakCheckDisabler guard(kLeaks);
      EXPECT_TRUE(m.insert_with_height(25, 25, 1));
      EXPECT_TRUE(m.insert_with_height(15, 15, 1));
      EXPECT_TRUE(m.insert_with_height(35, 35, 1));
      EXPECT_TRUE(m.insert_with_height(12, 12, 1));
      RetireChains(m);
    });

    EXPECT_EQ(out, (Pairs{{10, 10}, {20, 20}, {30, 30}, {40, 40}}));
    // The parked chunk twice (its successor moved), then every split-off
    // chunk, each resolved from its chain.
    EXPECT_EQ(trace[static_cast<std::size_t>(Point::kVersionWalk)],
              6 + kRetiringSplits);
    if constexpr (stats::kEnabled) {
      EXPECT_EQ(m.stats_registry().snapshot()[stats::Counter::kVersionFolds],
                4 + kRetiringSplits);
    }
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    return trace;
  };
  const HitSnapshot a = run_once();
  const HitSnapshot b = run_once();
  EXPECT_EQ(a, b) << "the interleaving must replay with an identical trace";
}

// As above, but the walk stands on chunk L {50, 55} and the writer's
// insert of 66 merges the orphan X {65} into it (removing 60 stripped X's
// tower): fold_merge prepends one union record per retained version, and
// its prune detaches L's old chain. Three splits of L's key range, then
// RetireChains, each retire another old chain.
TYPED_TEST(SnapshotStressTest, ChainWalkSurvivesMergeFold) {
  constexpr bool kLeaks = TestFixture::kLeaksByDesign;
  auto run_once = [] {
    typename TestFixture::Map m(InjectionCfg());
    for (std::uint64_t k : {10, 20}) {
      EXPECT_TRUE(m.insert_with_height(k, k, 0));
    }
    EXPECT_TRUE(m.insert_with_height(50, 50, 1));
    EXPECT_TRUE(m.insert_with_height(55, 55, 0));
    EXPECT_TRUE(m.insert_with_height(60, 60, 1));
    EXPECT_TRUE(m.insert_with_height(65, 65, 0));
    EXPECT_TRUE(m.remove(60));
    auto view = m.snapshot_at();
    EXPECT_TRUE(view.versioned());
    GrowChain(m, 50, 5);
    const auto [out, trace] = ParkedScan(m, view, [&m] {
      LeakCheckDisabler guard(kLeaks);
      EXPECT_TRUE(m.insert_with_height(66, 66, 0));
      EXPECT_TRUE(m.insert_with_height(52, 52, 1));
      EXPECT_TRUE(m.insert_with_height(60, 60, 1));
      EXPECT_TRUE(m.insert_with_height(54, 54, 1));
      RetireChains(m);
    });

    EXPECT_EQ(out,
              (Pairs{{10, 10}, {20, 20}, {50, 50}, {55, 55}, {65, 65}}));
    // L twice (its successor moved), then every split-off chunk.
    EXPECT_EQ(trace[static_cast<std::size_t>(Point::kVersionWalk)],
              5 + kRetiringSplits);
    if constexpr (stats::kEnabled) {
      const stats::Snapshot st = m.stats_registry().snapshot();
      EXPECT_EQ(st[stats::Counter::kOrphanMerges], 1u);
      EXPECT_EQ(st[stats::Counter::kVersionFolds], 4 + kRetiringSplits);
    }
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    return trace;
  };
  const HitSnapshot a = run_once();
  const HitSnapshot b = run_once();
  EXPECT_EQ(a, b) << "the interleaving must replay with an identical trace";
}

}  // namespace
}  // namespace sv::core
