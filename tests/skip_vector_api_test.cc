// Tests for the extended public API: floor/ceiling/first/last navigation,
// bulk_load, operation counters, and range-operation edge cases -- both
// sequentially (vs oracle) and under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "stats/stats.h"

namespace sv::core {
namespace {

using Map = SkipVector<std::uint64_t, std::uint64_t>;
using SeqMap = SkipVectorSeq<std::uint64_t, std::uint64_t>;

Config Tiny() {
  Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

// ---- Navigation -------------------------------------------------------------

TEST(Navigation, EmptyMap) {
  SeqMap m(Tiny());
  EXPECT_FALSE(m.first().has_value());
  EXPECT_FALSE(m.last().has_value());
  EXPECT_FALSE(m.floor(10).has_value());
  EXPECT_FALSE(m.ceiling(10).has_value());
}

TEST(Navigation, SingleElement) {
  SeqMap m(Tiny());
  ASSERT_TRUE(m.insert(50, 500));
  EXPECT_EQ(m.first()->first, 50u);
  EXPECT_EQ(m.last()->first, 50u);
  EXPECT_EQ(m.floor(50)->first, 50u);
  EXPECT_EQ(m.floor(99)->first, 50u);
  EXPECT_FALSE(m.floor(49).has_value());
  EXPECT_EQ(m.ceiling(50)->first, 50u);
  EXPECT_EQ(m.ceiling(1)->first, 50u);
  EXPECT_FALSE(m.ceiling(51).has_value());
}

TEST(Navigation, AgainstOracle) {
  SeqMap m(Tiny());
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(7);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_below(300);
    if (rng.next_below(3) == 0) {
      m.remove(k);
      oracle.erase(k);
    } else {
      const std::uint64_t v = rng.next();
      if (m.insert(k, v)) {
        oracle.emplace(k, v);
      }
    }
    // Probe navigation at a random point.
    const std::uint64_t q = rng.next_below(320);
    auto fl = m.floor(q);
    auto ub = oracle.upper_bound(q);
    if (ub == oracle.begin()) {
      ASSERT_FALSE(fl.has_value()) << "floor(" << q << ") @" << i;
    } else {
      auto expect = std::prev(ub);
      ASSERT_TRUE(fl.has_value());
      ASSERT_EQ(fl->first, expect->first) << "floor(" << q << ") @" << i;
      ASSERT_EQ(fl->second, expect->second);
    }
    auto ce = m.ceiling(q);
    auto lb = oracle.lower_bound(q);
    if (lb == oracle.end()) {
      ASSERT_FALSE(ce.has_value()) << "ceiling(" << q << ") @" << i;
    } else {
      ASSERT_TRUE(ce.has_value());
      ASSERT_EQ(ce->first, lb->first) << "ceiling(" << q << ") @" << i;
    }
    if (oracle.empty()) {
      ASSERT_FALSE(m.first().has_value());
      ASSERT_FALSE(m.last().has_value());
    } else {
      ASSERT_EQ(m.first()->first, oracle.begin()->first) << "@" << i;
      ASSERT_EQ(m.last()->first, oracle.rbegin()->first) << "@" << i;
    }
  }
}

TEST(Navigation, ConcurrentFirstLastStayWithinBounds) {
  // Churn the interior; keys 0 and kMax are permanent, so first()/last()
  // must always return them.
  Map m(Tiny());
  constexpr std::uint64_t kMax = 1023;
  ASSERT_TRUE(m.insert(0, 1));
  ASSERT_TRUE(m.insert(kMax, 2));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = 1 + rng.next_below(kMax - 1);
        if (rng.next_below(2) == 0) {
          m.insert(k, k);
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto f = m.first();
        auto l = m.last();
        if (!f || f->first != 0) errors.fetch_add(1);
        if (!l || l->first != kMax) errors.fetch_add(1);
        auto fl = m.floor(kMax + 100);
        if (!fl || fl->first != kMax) errors.fetch_add(1);
        auto ce = m.ceiling(0);
        if (!ce || ce->first != 0) errors.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// ---- Bulk load ----------------------------------------------------------------

TEST(BulkLoad, EquivalentToInserts) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> data;
  for (std::uint64_t k = 0; k < 1000; k += 3) data.emplace_back(k, k * 7);

  SeqMap bulk(Tiny());
  bulk.bulk_load(data);
  std::string err;
  ASSERT_TRUE(bulk.validate(&err)) << err;
  ASSERT_EQ(bulk.size_approx(), data.size());
  for (const auto& [k, v] : data) {
    ASSERT_EQ(bulk.lookup(k).value(), v) << k;
  }
  EXPECT_FALSE(bulk.lookup(1).has_value());
  // The map is fully operational afterwards.
  EXPECT_TRUE(bulk.insert(1, 11));
  EXPECT_TRUE(bulk.remove(0));
  EXPECT_EQ(bulk.first()->first, 1u);
  EXPECT_EQ(bulk.last()->first, data.back().first);
  ASSERT_TRUE(bulk.validate(&err)) << err;
}

TEST(BulkLoad, PacksChunksToTargetFill) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> data;
  for (std::uint64_t k = 0; k < 4096; ++k) data.emplace_back(k, k);
  SeqMap m(Config::for_elements(4096));
  m.bulk_load(data);
  auto st = m.stats();
  // Chunks are filled to T (half capacity): ~n/T data nodes, fill ~0.5.
  EXPECT_NEAR(st.layers[0].avg_fill, 0.5, 0.05);
  EXPECT_EQ(st.layers[0].elements, 4096u);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
}

TEST(BulkLoad, RejectsBadInput) {
  SeqMap m(Tiny());
  EXPECT_THROW(m.bulk_load({{5, 0}, {5, 1}}), std::invalid_argument);
  EXPECT_THROW(m.bulk_load({{5, 0}, {4, 1}}), std::invalid_argument);
  SeqMap m2(Tiny());
  ASSERT_TRUE(m2.insert(1, 1));
  EXPECT_THROW(m2.bulk_load({{5, 0}}), std::logic_error);
}

TEST(BulkLoad, EmptyInputIsNoop) {
  SeqMap m(Tiny());
  m.bulk_load({});
  EXPECT_EQ(m.size_approx(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(BulkLoad, SingleLayerMap) {
  Config c;
  c.layer_count = 1;
  c.target_data_vector_size = 4;
  SeqMap m(c);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> data;
  for (std::uint64_t k = 0; k < 64; ++k) data.emplace_back(k, k);
  m.bulk_load(data);
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  for (std::uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(m.lookup(k)) << k;
  EXPECT_TRUE(m.remove(0));
  EXPECT_TRUE(m.insert(100, 1));
}

TEST(BulkLoad, ConcurrentOpsAfterLoad) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> data;
  for (std::uint64_t k = 0; k < 8192; k += 2) data.emplace_back(k, k);
  Map m(Config::for_elements(8192));
  m.bulk_load(data);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.next_below(8192);
        switch (rng.next_below(3)) {
          case 0:
            m.insert(k, k);
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

// ---- Counters -------------------------------------------------------------------

TEST(Counters, SplitsAndMergesAreCounted) {
  SeqMap m(Tiny());
  // Ascending inserts: plenty of capacity splits and tower splits.
  for (std::uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(m.insert(k, k));
  const auto c1 = m.stats_registry().snapshot();
  if (stats::kEnabled) {
    EXPECT_GT(c1[stats::Counter::kCapacitySplits] +
                  c1[stats::Counter::kTowerSplits],
              0u);
  }
  EXPECT_EQ(c1[stats::Counter::kOpRestarts], 0u)
      << "sequential execution cannot restart";
  // Remove tall keys to orphan nodes, then churn to trigger merges.
  for (std::uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(m.remove(k));
  for (std::uint64_t k = 0; k < 500; ++k) {
    m.insert(k, k);
    m.remove(k);
  }
  if (stats::kEnabled) {
    EXPECT_GT(m.stats_registry().snapshot()[stats::Counter::kOrphanMerges],
              0u);
  }
}

// ---- Range edge cases --------------------------------------------------------------

TEST(RangeEdges, EmptyAndDegenerateRanges) {
  SeqMap m(Tiny());
  for (std::uint64_t k = 10; k <= 100; k += 10) ASSERT_TRUE(m.insert(k, k));
  std::size_t n = m.range_for_each(0, 9, [](auto, auto) {});
  EXPECT_EQ(n, 0u) << "range strictly before all keys";
  n = m.range_for_each(101, 1000, [](auto, auto) {});
  EXPECT_EQ(n, 0u) << "range strictly after all keys";
  n = m.range_for_each(50, 50, [](auto, auto) {});
  EXPECT_EQ(n, 1u) << "single-key range";
  n = m.range_for_each(55, 55, [](auto, auto) {});
  EXPECT_EQ(n, 0u) << "single absent key";
  n = m.range_for_each(0, ~std::uint64_t{0}, [](auto, auto) {});
  EXPECT_EQ(n, 10u) << "full-domain range";
}

TEST(RangeEdges, BoundariesAlignedToChunkEdges) {
  Config c = Tiny();
  SeqMap m(c);
  for (std::uint64_t k = 0; k < 256; ++k) ASSERT_TRUE(m.insert(k, k));
  // Probe many (lo, hi) pairs; count must equal hi - lo + 1 clamped.
  for (std::uint64_t lo = 0; lo < 256; lo += 7) {
    for (std::uint64_t hi = lo; hi < 256; hi += 31) {
      std::uint64_t prev = lo;
      bool ordered = true;
      std::size_t n = m.range_for_each(lo, hi, [&](std::uint64_t k, auto) {
        if (k < prev) ordered = false;
        prev = k;
      });
      ASSERT_EQ(n, hi - lo + 1) << lo << ".." << hi;
      ASSERT_TRUE(ordered) << "range_for_each must ascend";
    }
  }
}

TEST(RangeEdges, TransformReturnsVisitCount) {
  SeqMap m(Tiny());
  for (std::uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(m.insert(k, 0));
  const std::size_t n =
      m.range_transform(25, 74, [](std::uint64_t, std::uint64_t v) {
        return v + 1;
      });
  EXPECT_EQ(n, 50u);
  std::uint64_t touched = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    if (v == 1) {
      ++touched;
      EXPECT_GE(k, 25u);
      EXPECT_LE(k, 74u);
    }
  });
  EXPECT_EQ(touched, 50u);
}

}  // namespace
}  // namespace sv::core
