// Concurrent correctness tests for SkipVectorMap: multi-threaded stress with
// value tagging (torn-read detection), disjoint-partition oracles, contended
// insert/remove accounting, hazard-pointer reclamation bounds, and range
// query serializability, including against a chunk rewritten under its lock.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"
#include "txn/lock_mgr.h"
#include "lsan_guard.h"

namespace sv::core {
namespace {

using vectormap::Layout;
using MapHP = SkipVector<std::uint64_t, std::uint64_t>;
using MapLeak = SkipVectorLeak<std::uint64_t, std::uint64_t>;

std::uint64_t OrphanMerges(const MapHP& m) {
  return m.stats_registry().snapshot()[stats::Counter::kOrphanMerges];
}

Config SmallChunks() {
  Config c;
  c.layer_count = 5;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

unsigned StressThreads() {
  // Oversubscribe a little so single-core machines still interleave.
  const unsigned hw = hardware_threads();
  return hw >= 4 ? hw : 4;
}

// Values encode the key in their upper 32 bits; any lookup returning a
// mismatched tag proves a torn or misrouted read.
std::uint64_t TagFor(std::uint64_t key, std::uint64_t payload) {
  return (key << 32) | (payload & 0xFFFFFFFFu);
}

TEST(SkipVectorConcurrent, MixedOpsTaggedValues) {
  MapHP m(SmallChunks());
  constexpr std::uint64_t kRange = 256;
  const unsigned kThreads = StressThreads();
  constexpr std::uint64_t kOpsPerThread = 60000;
  std::atomic<std::uint64_t> bad_tags{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.next_below(kRange);
        switch (rng.next_below(10)) {
          case 0:
          case 1:
          case 2:
            m.insert(k, TagFor(k, rng.next()));
            break;
          case 3:
          case 4:
            m.remove(k);
            break;
          case 5:
            m.update(k, TagFor(k, rng.next()));
            break;
          default: {
            auto v = m.lookup(k);
            if (v && (*v >> 32) != k) {
              bad_tags.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_tags.load(), 0u) << "lookup returned a value for another key";

  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
  // Every surviving mapping must be in range and correctly tagged.
  std::size_t n = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_LT(k, kRange);
    EXPECT_EQ(v >> 32, k);
    ++n;
  });
  EXPECT_EQ(n, m.size_approx());
}

TEST(SkipVectorConcurrent, DisjointPartitionsMatchPerThreadOracles) {
  // Each thread owns a disjoint key partition and maintains a private
  // oracle; concurrent activity in other partitions must not disturb it.
  // Partitions are interleaved modulo the thread count so that every chunk
  // holds keys of many threads (maximum inter-thread chunk contention).
  MapHP m(SmallChunks());
  const unsigned kThreads = StressThreads();
  constexpr std::uint64_t kOpsPerThread = 40000;
  constexpr std::uint64_t kKeysPerThread = 128;
  std::vector<std::map<std::uint64_t, std::uint64_t>> oracles(kThreads);
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& oracle = oracles[t];
      Xoshiro256 rng(77 + t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.next_below(kKeysPerThread) * kThreads + t;
        switch (rng.next_below(3)) {
          case 0: {
            const std::uint64_t v = TagFor(k, rng.next());
            const bool expect = oracle.emplace(k, v).second;
            if (m.insert(k, v) != expect) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 1: {
            const bool expect = oracle.erase(k) > 0;
            if (m.remove(k) != expect) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          default: {
            auto it = oracle.find(k);
            auto got = m.lookup(k);
            const bool match =
                got.has_value() == (it != oracle.end()) &&
                (!got || *got == it->second);
            if (!match) violations.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0u);

  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  // Union of oracles == final contents.
  std::map<std::uint64_t, std::uint64_t> expected;
  for (const auto& o : oracles) expected.insert(o.begin(), o.end());
  std::map<std::uint64_t, std::uint64_t> actual;
  m.for_each([&](std::uint64_t k, std::uint64_t v) { actual.emplace(k, v); });
  EXPECT_EQ(actual, expected);
}

TEST(SkipVectorConcurrent, ContendedInsertExactlyOnce) {
  // All threads race to insert the same keys: each key admits exactly one
  // winner, and afterwards every key is present.
  MapHP m(SmallChunks());
  constexpr std::uint64_t kKeys = 4096;
  const unsigned kThreads = StressThreads();
  std::atomic<std::uint64_t> wins{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(5 + t);
      std::vector<std::uint64_t> keys(kKeys);
      for (std::uint64_t k = 0; k < kKeys; ++k) keys[k] = k;
      // Shuffle per thread so contention hits every region.
      for (std::uint64_t i = kKeys; i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_below(i)]);
      }
      std::uint64_t local = 0;
      for (auto k : keys) local += m.insert(k, TagFor(k, t)) ? 1 : 0;
      wins.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(m.size_approx(), kKeys);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(m.lookup(k).has_value()) << k;
  }
}

TEST(SkipVectorConcurrent, ContendedRemoveExactlyOnce) {
  MapHP m(SmallChunks());
  constexpr std::uint64_t kKeys = 4096;
  const unsigned kThreads = StressThreads();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(m.insert(k, TagFor(k, 0)));
  }
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(31 + t);
      std::vector<std::uint64_t> keys(kKeys);
      for (std::uint64_t k = 0; k < kKeys; ++k) keys[k] = k;
      for (std::uint64_t i = kKeys; i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_below(i)]);
      }
      std::uint64_t local = 0;
      for (auto k : keys) local += m.remove(k) ? 1 : 0;
      wins.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(m.size_approx(), 0u);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  std::size_t n = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++n; });
  EXPECT_EQ(n, 0u);
}

TEST(SkipVectorConcurrent, InsertRemoveChurnKeepsStructureValid) {
  // Heavy 0/50/50-style churn (the paper's worst case, Fig. 5) on a small
  // key range, then full validation.
  MapHP m(SmallChunks());
  constexpr std::uint64_t kRange = 64;  // maximum chunk contention
  const unsigned kThreads = StressThreads();
  constexpr std::uint64_t kOpsPerThread = 50000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(900 + t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.next_below(kRange);
        if (rng.next_below(2) == 0) {
          m.insert(k, TagFor(k, rng.next()));
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_LT(k, kRange);
    EXPECT_EQ(v >> 32, k);
  });
}

TEST(SkipVectorConcurrent, HazardPointersReclaimUnderChurn) {
  MapHP m(SmallChunks());
  constexpr std::uint64_t kRange = 512;
  const unsigned kThreads = StressThreads();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(4242 + t);
      for (std::uint64_t i = 0; i < 60000; ++i) {
        const std::uint64_t k = rng.next_below(kRange);
        if (rng.next_below(2) == 0) {
          m.insert(k, TagFor(k, i));
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto& domain = m.reclaimer().domain();
  // Churn at T_D=4 with a tiny key range forces many splits and merges;
  // reclamation must actually have happened, and after a flush the pending
  // backlog must respect the hazard-pointer bound.
  domain.flush();
  EXPECT_GT(domain.reclaimed_count(), 0u)
      << "merges should have retired and reclaimed nodes";
  EXPECT_LE(domain.retired_count(),
            domain.attached_threads() * reclaim::HazardDomain::kSlotsPerThread)
      << "post-quiesce backlog exceeds the HP protection bound";
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(SkipVectorConcurrent, LeakReclaimerVariantRunsClean) {
  // SV-Leak: same algorithm, no reclamation. Must survive identical churn.
  // Its unlinked chunks leak by design, on every thread that allocates.
  const sv::test::LeakCheckDisabler body_guard;
  MapLeak m(SmallChunks());
  constexpr std::uint64_t kRange = 256;
  const unsigned kThreads = StressThreads();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const sv::test::LeakCheckDisabler guard;
      Xoshiro256 rng(111 + t);
      for (std::uint64_t i = 0; i < 40000; ++i) {
        const std::uint64_t k = rng.next_below(kRange);
        switch (rng.next_below(3)) {
          case 0:
            m.insert(k, TagFor(k, i));
            break;
          case 1:
            m.remove(k);
            break;
          default:
            m.lookup(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(SkipVectorConcurrent, RangeTransformIsAtomic) {
  // Writers repeatedly stamp every value in the range with a fresh tag via
  // one mutating range query; serializability means a range read must never
  // observe two different tags.
  MapHP m(SmallChunks());
  constexpr std::uint64_t kKeys = 512;
  for (std::uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(m.insert(k, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mixed_snapshots{0};
  std::atomic<std::uint64_t> snapshots{0};

  std::vector<std::thread> writers;
  const unsigned kWriters = 2;
  for (unsigned t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t tag = t + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t stamp = (tag << 8) | t;
        m.range_transform(0, kKeys - 1,
                          [&](std::uint64_t, std::uint64_t) { return stamp; });
        tag += kWriters;
      }
    });
  }
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t first = 0;
        bool have_first = false;
        bool mixed = false;
        std::size_t count = 0;
        m.range_for_each(0, kKeys - 1,
                         [&](std::uint64_t, std::uint64_t v) {
                           ++count;
                           if (!have_first) {
                             first = v;
                             have_first = true;
                           } else if (v != first) {
                             mixed = true;
                           }
                         });
        if (count != kKeys || mixed) {
          mixed_snapshots.fetch_add(1, std::memory_order_relaxed);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(mixed_snapshots.load(), 0u)
      << "a range query observed a partially applied range transform";
}

TEST(SkipVectorConcurrent, RangeQueriesDuringStructuralChurn) {
  // Range reads while inserts/removes reshape the covered chunks: counts
  // must be plausible and every observed key in range and correctly tagged.
  MapHP m(SmallChunks());
  constexpr std::uint64_t kRange = 1024;
  // Half the keys always present (never removed), the rest churn.
  for (std::uint64_t k = 0; k < kRange; k += 2) {
    ASSERT_TRUE(m.insert(k, TagFor(k, 7)));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};

  std::vector<std::thread> churners;
  for (unsigned t = 0; t < 2; ++t) {
    churners.emplace_back([&, t] {
      Xoshiro256 rng(5555 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kRange / 2) * 2 + 1;  // odd
        if (rng.next_below(2) == 0) {
          m.insert(k, TagFor(k, rng.next()));
        } else {
          m.remove(k);
        }
      }
    });
  }
  std::vector<std::thread> scanners;
  for (unsigned t = 0; t < 2; ++t) {
    scanners.emplace_back([&, t] {
      Xoshiro256 rng(31337 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = rng.next_below(kRange / 2);
        const std::uint64_t hi = lo + rng.next_below(kRange - lo);
        std::uint64_t evens_seen = 0;
        m.range_for_each(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
          if (k < lo || k > hi || (v >> 32) != k) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          if (k % 2 == 0) ++evens_seen;
        });
        // All permanently-present even keys in [lo, hi] must be seen.
        const std::uint64_t expect_evens = hi / 2 - (lo + 1) / 2 + 1;
        if (evens_seen != expect_evens) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  for (auto& th : churners) th.join();
  for (auto& th : scanners) th.join();
  EXPECT_EQ(errors.load(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(SkipVectorConcurrent, SortedSortedLayoutUnderStress) {
  // Fig. 7b's alternative layouts must be just as correct as the default
  // sorted/sorted: unsorted index chunks, and the paper's unsorted data
  // chunks.
  for (const auto& [index, data] :
       {std::pair{Layout::kUnsorted, Layout::kSorted},
        std::pair{Layout::kSorted, Layout::kUnsorted}}) {
    SCOPED_TRACE(std::string(vectormap::layout_name(index)) + "/" +
                 vectormap::layout_name(data));
    Config cfg = SmallChunks();
    cfg.index_layout = index;
    cfg.data_layout = data;
    SkipVectorMap<std::uint64_t, std::uint64_t, reclaim::HazardReclaimer> m(
        cfg);
    const unsigned kThreads = StressThreads();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Xoshiro256 rng(64 + t);
        for (std::uint64_t i = 0; i < 30000; ++i) {
          const std::uint64_t k = rng.next_below(200);
          switch (rng.next_below(3)) {
            case 0:
              m.insert(k, TagFor(k, i));
              break;
            case 1:
              m.remove(k);
              break;
            default: {
              auto v = m.lookup(k);
              if (v) {
                EXPECT_EQ(*v >> 32, k);
              }
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    std::string err;
    EXPECT_TRUE(m.validate(&err)) << err;
  }
}

// ---- Deterministic rare-interleaving scenarios (fault injection) -----------
//
// These tests replace "run churn and hope the scheduler cooperates" with
// exact interleavings: a blocking handler parks a thread at a named
// transition point while the test probes the structure from outside, and the
// per-point hit trace is compared across two runs to prove the scenario
// replays deterministically.

using debug::FaultInjector;
using debug::Point;
using debug::Schedule;
using HitSnapshot =
    std::array<std::uint64_t, static_cast<std::size_t>(Point::kCount)>;

Config TwoLayer() {
  Config c;
  c.layer_count = 2;
  c.target_data_vector_size = 4;  // capacity 8, merge threshold 7
  c.target_index_vector_size = 4;
  return c;
}

TEST(SkipVectorInjection, LazyOrphanMergeDuringLookup) {
  auto run_once = [](bool probe_blocked_reader) {
    MapHP m(TwoLayer());
    // Shape: head data chunk {10,20,30,40}; key 50 gets a height-1 tower,
    // splitting off a second chunk; 60 and 70 join it; removing 50 strips
    // the tower and leaves {60,70} as a lazy orphan awaiting merge.
    for (std::uint64_t k : {10, 20, 30, 40}) {
      EXPECT_TRUE(m.insert_with_height(k, TagFor(k, 1), 0));
    }
    EXPECT_TRUE(m.insert_with_height(50, TagFor(50, 1), 1));
    EXPECT_TRUE(m.insert_with_height(60, TagFor(60, 1), 0));
    EXPECT_TRUE(m.insert_with_height(70, TagFor(70, 1), 0));
    EXPECT_TRUE(m.remove(50));
    EXPECT_EQ(OrphanMerges(m), 0u);

    // Park the merging thread at kMerge: both write locks held, the orphan
    // not yet absorbed.
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    FaultInjector::instance().set_handler(
        [&](Point p, std::uint64_t) {
          if (p != Point::kMerge) return;
          parked.store(true, std::memory_order_release);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        });

    // 4 + 2 entries < threshold 7: this insert's traversal must merge the
    // orphan before placing 80.
    std::thread merger([&] {
      EXPECT_TRUE(m.insert_with_height(80, TagFor(80, 1), 0));
    });
    while (!parked.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }

    // A lookup into the write-locked region cannot complete until the merge
    // finishes; one outside it proceeds immediately.
    std::atomic<bool> lookup_done{false};
    std::uint64_t looked_up = 0;
    std::thread reader([&] {
      auto v = m.lookup(60);
      ASSERT_TRUE(v.has_value());
      looked_up = *v;
      lookup_done.store(true, std::memory_order_release);
    });
    if (probe_blocked_reader) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      EXPECT_FALSE(lookup_done.load(std::memory_order_acquire))
          << "a read of the locked chunk completed mid-merge";
    }

    release.store(true, std::memory_order_release);
    merger.join();
    reader.join();
    EXPECT_TRUE(lookup_done.load());
    EXPECT_EQ(looked_up, TagFor(60, 1));
    if (stats::kEnabled) {
      EXPECT_EQ(OrphanMerges(m), 1u);
    }

    const HitSnapshot snap = FaultInjector::instance().hit_snapshot();
    EXPECT_EQ(snap[static_cast<std::size_t>(Point::kMerge)], 1u);
    FaultInjector::instance().clear();

    std::map<std::uint64_t, std::uint64_t> contents;
    m.for_each([&](std::uint64_t k, std::uint64_t v) { contents.emplace(k, v); });
    const std::map<std::uint64_t, std::uint64_t> expected{
        {10, TagFor(10, 1)}, {20, TagFor(20, 1)}, {30, TagFor(30, 1)},
        {40, TagFor(40, 1)}, {60, TagFor(60, 1)}, {70, TagFor(70, 1)},
        {80, TagFor(80, 1)}};
    EXPECT_EQ(contents, expected);
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    return snap;
  };

  const HitSnapshot a = run_once(/*probe_blocked_reader=*/true);
  const HitSnapshot b = run_once(/*probe_blocked_reader=*/false);
  EXPECT_EQ(a, b) << "the interleaving must replay with an identical trace";
}

TEST(SkipVectorInjection, FreezeAbortLeavesReadersUnblocked) {
  auto run_once = []() {
    MapHP m(TwoLayer());
    for (std::uint64_t k : {10, 20, 30, 40}) {
      EXPECT_TRUE(m.insert_with_height(k, TagFor(k, 1), 0));
    }
    EXPECT_TRUE(m.insert_with_height(50, TagFor(50, 1), 1));
    EXPECT_TRUE(m.insert_with_height(60, TagFor(60, 1), 0));

    // Park a duplicate tower insert at kThaw: it found 50 in the index
    // layer and is about to thaw its frozen checkpoint -- the index head is
    // still frozen at this instant.
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    FaultInjector::instance().set_handler(
        [&](Point p, std::uint64_t) {
          if (p != Point::kThaw) return;
          parked.store(true, std::memory_order_release);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        });
    std::thread dup([&] {
      EXPECT_FALSE(m.insert_with_height(50, TagFor(50, 2), 1));
    });
    while (!parked.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }

    // Freezing blocks writers, never readers (paper SIV-B): lookups through
    // the frozen index node must succeed right now. A data-layer write that
    // never touches the frozen node also proceeds.
    EXPECT_EQ(m.lookup(10), TagFor(10, 1));
    EXPECT_EQ(m.lookup(50), TagFor(50, 1));
    EXPECT_EQ(m.lookup(60), TagFor(60, 1));
    EXPECT_TRUE(m.insert_with_height(80, TagFor(80, 1), 0));

    release.store(true, std::memory_order_release);
    dup.join();

    const HitSnapshot snap = FaultInjector::instance().hit_snapshot();
    EXPECT_GE(snap[static_cast<std::size_t>(Point::kThaw)], 1u);
    FaultInjector::instance().clear();
    EXPECT_EQ(m.lookup(50), TagFor(50, 1)) << "duplicate insert must not win";
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    return snap;
  };

  const HitSnapshot a = run_once();
  const HitSnapshot b = run_once();
  EXPECT_EQ(a, b) << "the interleaving must replay with an identical trace";
}

TEST(SkipVectorInjection, ChurnUnderScheduleSweepStaysValid) {
  // An 8-thread torture slice under a seeded probabilistic schedule: forced
  // yields stretch every transition window and injected freeze failures
  // exercise the checkpoint-resume path continuously.
  Schedule s;
  s.seed = 9;
  s.yield_prob = 0.2;
  s.fail_prob = 0.1;
  FaultInjector::instance().install(s);

  MapHP m(SmallChunks());
  constexpr std::uint64_t kRange = 128;
  constexpr unsigned kThreads = 8;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(2600 + t);
      for (std::uint64_t i = 0; i < 4000; ++i) {
        const std::uint64_t k = rng.next_below(kRange);
        switch (rng.next_below(4)) {
          case 0:
            m.insert(k, TagFor(k, rng.next()));
            break;
          case 1:
            m.remove(k);
            break;
          default: {
            auto v = m.lookup(k);
            if (v) {
              EXPECT_EQ(*v >> 32, k);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // The schedule must actually have perturbed executions.
  EXPECT_GT(FaultInjector::instance().fired_count(Point::kFreeze), 0u);
  FaultInjector::instance().clear();
  const auto rep = m.validate_structure();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_LT(k, kRange);
    EXPECT_EQ(v >> 32, k);
  });
}

// ---- A successor rewritten under its lock ----------------------------------

// A range's growing phase reads the next chunk's minimum before locking it.
// Here a lock pass holds that chunk, the orphan {282, 290} after the head
// chunk {270, 280}, midway through the commit {remove(282), put(283)}: its
// minimum reads 290, larger than in either committed state. A range that
// trusted the read would return {280} although every committed state holds
// 282 or 283; it must wait for the commit and return {280, 283}.
TEST(SkipVectorConcurrent, RangeWaitsForSuccessorMidCommit) {
  using MA = txn::MapAccess<MapHP>;
  for (const Layout layout : {Layout::kSorted, Layout::kUnsorted}) {
    SCOPED_TRACE(vectormap::layout_name(layout));
    Config cfg = TwoLayer();
    cfg.data_layout = layout;
    MapHP m(cfg);
    for (std::uint64_t k : {270, 280}) {
      ASSERT_TRUE(m.insert_with_height(k, TagFor(k, 1), 0));
    }
    ASSERT_TRUE(m.insert_with_height(281, TagFor(281, 1), 1));
    for (std::uint64_t k : {282, 290}) {
      ASSERT_TRUE(m.insert_with_height(k, TagFor(k, 1), 0));
    }
    ASSERT_TRUE(m.remove(281));  // strips the tower: {282, 290} is an orphan
    ASSERT_EQ(OrphanMerges(m), 0u);

    MA::Node* orphan = nullptr;
    {
      txn::OpScope<MapHP> scope(m);
      ASSERT_EQ(MA::lock_floor_descent(m, scope.ctx(), {}, 282, &orphan),
                MA::Seek::kLocked);
      scope.ctx().drop_all();
    }
    ASSERT_TRUE(MA::is_orphan(orphan));
    std::array<MA::Op, 2> ops{MA::Op::remove(282),
                              MA::Op::put(283, TagFor(283, 1))};
    const std::vector<std::uint32_t> order{0, 1};
    const std::uint64_t c = MA::version_reserve(m);
    std::vector<MA::Node*> pieces;
    std::size_t applied = 0;
    std::int64_t delta = 0;
    auto apply = [&](std::size_t i) {
      MA::apply_chunk_ops(m, orphan, ops.data(), order, i, i + 1, c,
                          MA::snapshots_active(m), pieces, applied, delta);
    };
    apply(0);  // remove(282)

    std::atomic<bool> done{false};
    std::vector<std::uint64_t> seen;
    std::thread scanner([&] {
      m.range_for_each(280, 283, [&](std::uint64_t k, std::uint64_t v) {
        EXPECT_EQ(v, TagFor(k, 1));
        seen.push_back(k);
      });
      done.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(done.load(std::memory_order_acquire))
        << "the range did not wait for the chunk being rewritten";
    apply(1);  // put(283)
    MA::note_size_delta(m, delta);
    orphan->lock.release();
    scanner.join();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{280, 283}));
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
}

}  // namespace
}  // namespace sv::core
