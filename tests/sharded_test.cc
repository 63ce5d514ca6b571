// Tests for ShardedSkipVector: routing, cross-shard ranges, navigation,
// oracle checks, and concurrent stress.
#include "core/sharded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace sv::core {
namespace {

Config Tiny() {
  Config c;
  c.layer_count = 3;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

TEST(Sharded, RejectsBadParameters) {
  using M = ShardedSkipVector<std::uint64_t, std::uint64_t>;
  EXPECT_THROW(M(0, 4), std::invalid_argument);
  EXPECT_THROW(M(100, 0), std::invalid_argument);
}

// The last shard owns every key from (n-1) * span up, as point ops route
// them: a key at or above key_space must show in ranges, transforms and
// snapshots as it does in lookup and for_each.
TEST(Sharded, KeysPastKeySpaceStayInRanges) {
  ShardedSkipVector<std::uint64_t, std::uint64_t> m(1000, 4, Tiny());
  ASSERT_TRUE(m.insert(5000, 50));
  ASSERT_TRUE(m.insert(10, 1));
  ASSERT_EQ(m.lookup(5000), std::optional<std::uint64_t>(50));
  std::size_t each = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++each; });
  EXPECT_EQ(each, 2u);

  std::vector<std::uint64_t> seen;
  EXPECT_EQ(m.range_for_each(0, 10000,
                             [&](std::uint64_t k, std::uint64_t) {
                               seen.push_back(k);
                             }),
            2u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{10, 5000}));
  EXPECT_EQ(m.range_for_each(4000, 6000, [](std::uint64_t, std::uint64_t) {}),
            1u);
  EXPECT_EQ(m.range_transform(0, 10000,
                              [](std::uint64_t, std::uint64_t v) {
                                return v + 1;
                              }),
            2u);
  EXPECT_EQ(m.lookup(5000), std::optional<std::uint64_t>(51));
  const auto snap = m.snapshot(0, ~std::uint64_t{0});
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.back(), (std::pair<std::uint64_t, std::uint64_t>{5000, 51}));
}

TEST(Sharded, OracleModelCheck) {
  constexpr std::uint64_t kSpace = 1000;
  ShardedSkipVector<std::uint64_t, std::uint64_t> m(kSpace, 7, Tiny());
  EXPECT_EQ(m.shard_count(), 7u);
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(3);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t k = rng.next_below(kSpace);
    switch (rng.next_below(4)) {
      case 0: {
        const std::uint64_t v = rng.next();
        ASSERT_EQ(m.insert(k, v), oracle.emplace(k, v).second) << i;
        break;
      }
      case 1:
        ASSERT_EQ(m.remove(k), oracle.erase(k) > 0) << i;
        break;
      case 2: {
        const std::uint64_t v = rng.next();
        auto it = oracle.find(k);
        ASSERT_EQ(m.update(k, v), it != oracle.end()) << i;
        if (it != oracle.end()) it->second = v;
        break;
      }
      default: {
        auto got = m.lookup(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end()) << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
  }
  ASSERT_TRUE(m.validate());
  ASSERT_EQ(m.size_approx(), oracle.size());
  // Global ordered iteration equals oracle.
  auto it = oracle.begin();
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  });
  EXPECT_EQ(it, oracle.end());
  // first()/last() across shards.
  if (!oracle.empty()) {
    EXPECT_EQ(m.first()->first, oracle.begin()->first);
    EXPECT_EQ(m.last()->first, oracle.rbegin()->first);
  }
}

TEST(Sharded, CrossShardRangeQueries) {
  constexpr std::uint64_t kSpace = 256;
  ShardedSkipVector<std::uint64_t, std::uint64_t> m(kSpace, 4, Tiny());
  for (std::uint64_t k = 0; k < kSpace; ++k) ASSERT_TRUE(m.insert(k, 0));
  // A range spanning all four shards.
  std::uint64_t prev = 0;
  bool first_cb = true, ordered = true;
  const std::size_t n = m.range_for_each(10, 250, [&](std::uint64_t k, auto) {
    if (!first_cb && k <= prev) ordered = false;
    prev = k;
    first_cb = false;
  });
  EXPECT_EQ(n, 241u);
  EXPECT_TRUE(ordered);
  // Mutating range across shard boundaries.
  EXPECT_EQ(m.range_transform(60, 70, [](auto, auto v) { return v + 9; }),
            11u);
  std::uint64_t touched = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    if (v == 9) {
      ++touched;
      EXPECT_GE(k, 60u);
      EXPECT_LE(k, 70u);
    }
  });
  EXPECT_EQ(touched, 11u);
  // Clamping beyond the key space.
  EXPECT_EQ(m.range_for_each(250, 1 << 20, [](auto, auto) {}), 6u);
}

TEST(Sharded, ConcurrentStressPerShardIsolation) {
  constexpr std::uint64_t kSpace = 1024;
  ShardedSkipVector<std::uint64_t, std::uint64_t> m(kSpace, 8, Tiny());
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 11);
      for (int i = 0; i < 40000; ++i) {
        const std::uint64_t k = rng.next_below(kSpace);
        switch (rng.next_below(4)) {
          case 0:
            m.insert(k, (k << 32) | 1);
            break;
          case 1:
            m.remove(k);
            break;
          case 2: {
            auto v = m.lookup(k);
            if (v && (*v >> 32) != k) bad.fetch_add(1);
            break;
          }
          default:
            m.range_for_each(k, k + 100, [&](std::uint64_t kk,
                                             std::uint64_t vv) {
              if ((vv >> 32) != kk) bad.fetch_add(1);
            });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_TRUE(m.validate());
}

// Cross-shard ranges under full concurrency: 8 threads over 8 shards, half
// mutating and half scanning ranges that straddle several shard boundaries
// (including range_transform). A watchdog aborts the process if the test
// wedges -- a cross-shard scan that deadlocks against per-shard mutators
// would otherwise hang until the ctest TIMEOUT.
TEST(Sharded, ConcurrentCrossShardRanges) {
  constexpr std::uint64_t kSpace = 1024;
  constexpr std::uint64_t kAnchorStride = 32;  // anchors never removed
  ShardedSkipVector<std::uint64_t, std::uint64_t> m(kSpace, 8, Tiny());
  for (std::uint64_t k = 0; k < kSpace; k += kAnchorStride) {
    ASSERT_TRUE(m.insert(k, (k << 32) | 1));
  }

  std::atomic<bool> done{false};
  std::thread watchdog([&done] {
    for (int i = 0; i < 120 * 10; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (done.load()) return;
    }
    std::fprintf(stderr, "ConcurrentCrossShardRanges wedged; aborting\n");
    std::_Exit(3);
  });

  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(400 + t);
      for (int i = 0; i < 50000; ++i) {
        const std::uint64_t k = rng.next_below(kSpace);
        if (k % kAnchorStride == 0) continue;
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            m.insert(k, (k << 32) | 2);
            break;
          case 2:
            m.remove(k);
            break;
          default:
            m.update(k, (k << 32) | 3);
            break;
        }
      }
    });
  }
  for (int s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      Xoshiro256 rng(500 + s);
      for (int i = 0; i < 2000; ++i) {
        // Spans kSpace/8-wide shards: 300..700-wide windows cross 2-6.
        const std::uint64_t lo = rng.next_below(kSpace - 700);
        const std::uint64_t hi = lo + 300 + rng.next_below(400);
        std::uint64_t prev = 0;
        bool first = true;
        std::vector<std::uint64_t> seen;
        m.range_for_each(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
          if (k < lo || k > hi) errors.fetch_add(1);
          if (!first && k <= prev) errors.fetch_add(1);
          if ((v >> 32) != k) errors.fetch_add(1);
          prev = k;
          first = false;
          seen.push_back(k);
        });
        // Every anchor inside [lo, hi] must appear in every snapshot.
        std::size_t gi = 0;
        for (std::uint64_t a = ((lo + kAnchorStride - 1) / kAnchorStride) *
                               kAnchorStride;
             a <= hi && a < kSpace; a += kAnchorStride) {
          while (gi < seen.size() && seen[gi] < a) ++gi;
          if (gi >= seen.size() || seen[gi] != a) errors.fetch_add(1);
        }
        // Occasionally mutate across shard boundaries too.
        if (i % 64 == 0) {
          m.range_transform(lo, lo + 200,
                            [](std::uint64_t k, std::uint64_t) {
                              return (k << 32) | 3;
                            });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true);
  watchdog.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_TRUE(m.validate());
}

// Sequential oracle for cross-shard batches: routing, `applied` write-back
// through the shard partition (which reorders ops by shard), and the
// returned presence-change count.
TEST(Sharded, CrossShardBatchOracle) {
  constexpr std::uint64_t kSpace = 512;
  using M = ShardedSkipVector<std::uint64_t, std::uint64_t>;
  M m(kSpace, 4, Tiny());
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(21);
  for (int round = 0; round < 4000; ++round) {
    std::vector<M::BatchOp> batch;
    std::vector<std::uint64_t> used;
    const std::uint64_t nops = 2 + rng.next_below(5);
    for (std::uint64_t i = 0; i < nops; ++i) {
      // Distinct keys, spread so most batches straddle shard boundaries.
      std::uint64_t k;
      do {
        k = rng.next_below(kSpace);
      } while (std::find(used.begin(), used.end(), k) != used.end());
      used.push_back(k);
      if (rng.next_below(3) == 0) {
        batch.push_back(M::BatchOp::remove(k));
      } else {
        batch.push_back(M::BatchOp::put(k, rng.next()));
      }
    }
    std::size_t expect_applied = 0;
    std::vector<bool> expect_flag;
    for (const auto& op : batch) {
      const bool present = oracle.count(op.key) > 0;
      bool applied;
      if (op.kind == mvcc::BatchOpKind::kPut) {
        applied = !present;
        oracle[op.key] = op.value;
      } else {
        applied = present;
        oracle.erase(op.key);
      }
      expect_flag.push_back(applied);
      expect_applied += applied ? 1 : 0;
    }
    ASSERT_EQ(m.apply_batch(batch), expect_applied) << round;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].applied, expect_flag[i]) << round << ":" << i;
    }
  }
  for (const auto& [k, v] : oracle) {
    auto got = m.lookup(k);
    ASSERT_TRUE(got.has_value()) << k;
    ASSERT_EQ(*got, v) << k;
  }
  EXPECT_EQ(m.size_approx(), oracle.size());
  EXPECT_TRUE(m.validate());
}

// Cross-shard batch atomicity against cross-shard snapshots: a writer
// stamps every anchor (one per shard and then some) with a generation in
// ONE batch; snapshot(0, kSpace-1) spans all shards, so the gate 2PL must
// make each batch all-or-nothing even across shard boundaries. Point-op
// noise on non-anchor keys runs ungated throughout.
TEST(Sharded, CrossShardBatchesAtomicUnderSnapshots) {
  constexpr std::uint64_t kSpace = 512;
  constexpr std::uint64_t kAnchorStride = 32;  // 16 anchors over 8 shards
  using M = ShardedSkipVector<std::uint64_t, std::uint64_t>;
  M m(kSpace, 8, Tiny());
  for (std::uint64_t a = 0; a < kSpace; a += kAnchorStride) {
    ASSERT_TRUE(m.insert(a, 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> gens{1};
  std::thread batcher([&] {
    std::uint64_t gen = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ++gen;
      std::vector<M::BatchOp> batch;
      for (std::uint64_t a = 0; a < kSpace; a += kAnchorStride) {
        batch.push_back(M::BatchOp::put(a, gen));
      }
      m.apply_batch(batch);
      gens.store(gen, std::memory_order_relaxed);
    }
  });
  std::thread noise([&] {
    Xoshiro256 rng(77);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = rng.next_below(kSpace);
      if (k % kAnchorStride == 0) continue;
      if (rng.next_below(2) == 0) {
        m.insert(k, k);
      } else {
        m.remove(k);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = m.snapshot(0, kSpace - 1);
        std::uint64_t lo_gen = ~0ull, hi_gen = 0, anchors = 0;
        for (const auto& [k, v] : snap) {
          if (k % kAnchorStride != 0) continue;
          ++anchors;
          lo_gen = v < lo_gen ? v : lo_gen;
          hi_gen = v > hi_gen ? v : hi_gen;
        }
        // All anchors present, all at one generation: a batch observed
        // half-applied across shards shows two generations (or a gap).
        if (anchors != kSpace / kAnchorStride || lo_gen != hi_gen) {
          torn.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  batcher.join();
  noise.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(gens.load(), 1u);
  EXPECT_TRUE(m.validate());
}

}  // namespace
}  // namespace sv::core
