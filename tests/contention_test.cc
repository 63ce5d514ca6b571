// Targeted contention tests for the paper's trickiest interleavings:
// freeze conflicts between tall inserts, remove-vs-insert races on the
// same key (the Listing 4 line 13 restart), merge storms, and thundering
// herds on a single chunk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "stats/stats.h"

namespace sv::core {
namespace {

using Map = SkipVector<std::uint64_t, std::uint64_t>;

std::uint64_t Count(const Map& m, stats::Counter c) {
  return m.stats_registry().snapshot()[c];
}

// Tall-tower configuration: nearly every insert reaches several layers, so
// freeze windows overlap constantly.
Config TallTowers() {
  Config c;
  c.layer_count = 6;
  c.target_data_vector_size = 2;  // 1/2 of inserts have height > 0
  c.target_index_vector_size = 2;
  return c;
}

TEST(Contention, TallInsertFreezeConflicts) {
  Map m(TallTowers());
  constexpr std::uint64_t kKeys = 512;
  const unsigned kThreads = 4;
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread inserts the same keys in the same order: maximal
      // freeze contention on the same prevs[] chains.
      std::uint64_t local = 0;
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        local += m.insert(k, (k << 32) | t) ? 1 : 0;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  // Restarts must have occurred (the whole point of the test) -- unless
  // the scheduler serialized us perfectly, which we do not assert against.
  auto st = m.stats();
  EXPECT_GT(st.layers[1].elements, 0u);
}

TEST(Contention, InsertRemoveSameKeyRace) {
  // One hot key, tall towers: exercises the Listing 4 line 13 restart (a
  // remover observing a mid-flight insert of the same key) continuously.
  Map m(TallTowers());
  std::atomic<std::uint64_t> net{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 900);
      std::int64_t inserted = 0, removed = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.next_below(2) == 0) {
          inserted += m.insert(42, t) ? 1 : 0;
        } else {
          removed += m.remove(42) ? 1 : 0;
        }
      }
      net.fetch_add(static_cast<std::uint64_t>(inserted - removed));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& th : threads) th.join();
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  const bool present = m.lookup(42).has_value();
  EXPECT_EQ(net.load(), present ? 1u : 0u)
      << "successful inserts minus removes must equal final presence";
}

TEST(Contention, SingleChunkThunderingHerd) {
  // Key range smaller than one chunk: every operation contends on the
  // same data node (and its lock word).
  Config c;
  c.layer_count = 3;
  c.target_data_vector_size = 32;  // capacity 64 > range
  c.target_index_vector_size = 32;
  Map m(c);
  constexpr std::uint64_t kRange = 48;
  std::atomic<std::uint64_t> bad{0};
  // Whether the herd actually forces a restart depends on the scheduler
  // (on a single core the threads can serialize); op_restarts is
  // cumulative, so hammer in rounds until one is observed. Without
  // sv::stats the count stays 0, so one round suffices.
  const int rounds = stats::kEnabled ? 8 : 1;
  for (int round = 0;
       round < rounds && Count(m, stats::Counter::kOpRestarts) == 0;
       ++round) {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
      threads.emplace_back([&, t, round] {
        Xoshiro256 rng(t + 77 + 31 * round);
        for (int i = 0; i < 40000; ++i) {
          const std::uint64_t k = rng.next_below(kRange);
          switch (rng.next_below(3)) {
            case 0:
              m.insert(k, (k << 32) | 5);
              break;
            case 1:
              m.remove(k);
              break;
            default: {
              auto v = m.lookup(k);
              if (v && (*v >> 32) != k) bad.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(bad.load(), 0u);
    std::string err;
    ASSERT_TRUE(m.validate(&err)) << err;
  }
  if (stats::kEnabled) {
    EXPECT_GT(Count(m, stats::Counter::kOpRestarts), 0u)
        << "herd should have forced restarts";
  }
}

TEST(Contention, MergeStormAfterMassRemoval) {
  // Fill, remove 90% (creating orphans everywhere), then let concurrent
  // mutators clean up; merging must converge and no key may be lost.
  Map m(TallTowers());
  constexpr std::uint64_t kKeys = 2048;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(m.insert(k, (k << 32) | 1));
  }
  // Remove everything not divisible by 10.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k % 10 != 0) {
      ASSERT_TRUE(m.remove(k));
    }
  }
  // Concurrent churn on the survivors' neighborhoods triggers merges.
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 5000);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.next_below(kKeys);
        if (k % 10 == 0) {
          auto v = m.lookup(k);
          EXPECT_TRUE(v.has_value()) << k;
        } else if (rng.next_below(2) == 0) {
          m.insert(k, (k << 32) | 2);
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  if (stats::kEnabled) {
    EXPECT_GT(Count(m, stats::Counter::kOrphanMerges), 0u);
  }
  for (std::uint64_t k = 0; k < kKeys; k += 10) {
    ASSERT_TRUE(m.lookup(k).has_value()) << k;
  }
}

TEST(Contention, NavigationUnderFreezePressure) {
  // floor/ceiling/first/last racing with tall inserts whose freezes pin
  // whole tower paths.
  Map m(TallTowers());
  ASSERT_TRUE(m.insert(0, 0));
  ASSERT_TRUE(m.insert(1 << 20, 1));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 321);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = 1 + rng.next_below((1 << 20) - 1);
        if (rng.next_below(2) == 0) {
          m.insert(k, k);
        } else {
          m.remove(k);
        }
      }
    });
  }
  threads.emplace_back([&] {
    Xoshiro256 rng(4321);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t q = rng.next_below(1 << 20);
      auto f = m.floor(q);
      if (!f || f->first > q) bad.fetch_add(1);
      auto ce = m.ceiling(q);
      if (!ce || ce->first < q) bad.fetch_add(1);
      if (!m.first() || !m.last()) bad.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

}  // namespace
}  // namespace sv::core
