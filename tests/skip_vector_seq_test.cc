// Sequential model-checking of SkipVectorMap against a std::map oracle,
// plus structural invariant checks (validate()) across the configuration
// grid: chunk sizes, merge thresholds, sorted/unsorted layouts.
#include "core/skip_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sv::core {
namespace {

using vectormap::Layout;

// Layouts became runtime configuration; the template parameters survive
// here as convenience shorthand for the grid of static combinations.
template <Layout I, Layout D>
struct Seq
    : SkipVectorMap<std::uint64_t, std::uint64_t, reclaim::ImmediateReclaimer> {
  explicit Seq(Config c = Config{})
      : SkipVectorMap([](Config cfg) {
          cfg.index_layout = I;
          cfg.data_layout = D;
          return cfg;
        }(c)) {}
};

TEST(SkipVectorBasics, EmptyMapBehaviour) {
  Seq<Layout::kSorted, Layout::kUnsorted> m;
  EXPECT_FALSE(m.lookup(0).has_value());
  EXPECT_FALSE(m.lookup(42).has_value());
  EXPECT_FALSE(m.remove(42));
  EXPECT_EQ(m.size_approx(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(SkipVectorBasics, InsertLookupRemoveSingle) {
  Seq<Layout::kSorted, Layout::kUnsorted> m;
  EXPECT_TRUE(m.insert(7, 70));
  EXPECT_FALSE(m.insert(7, 71)) << "duplicate insert must fail";
  EXPECT_EQ(m.lookup(7).value(), 70u);
  EXPECT_EQ(m.size_approx(), 1u);
  EXPECT_TRUE(m.remove(7));
  EXPECT_FALSE(m.remove(7));
  EXPECT_FALSE(m.lookup(7).has_value());
  EXPECT_EQ(m.size_approx(), 0u);
}

TEST(SkipVectorBasics, UpdateInPlace) {
  Seq<Layout::kSorted, Layout::kUnsorted> m;
  EXPECT_FALSE(m.update(5, 1)) << "update of absent key must fail";
  ASSERT_TRUE(m.insert(5, 1));
  EXPECT_TRUE(m.update(5, 2));
  EXPECT_EQ(m.lookup(5).value(), 2u);
}

TEST(SkipVectorBasics, FullKeyDomainUsable) {
  // No sentinel keys are reserved: min and max key values are storable.
  Seq<Layout::kSorted, Layout::kUnsorted> m;
  const std::uint64_t lo = 0;
  const std::uint64_t hi = ~std::uint64_t{0};
  EXPECT_TRUE(m.insert(lo, 1));
  EXPECT_TRUE(m.insert(hi, 2));
  EXPECT_EQ(m.lookup(lo).value(), 1u);
  EXPECT_EQ(m.lookup(hi).value(), 2u);
  EXPECT_TRUE(m.remove(lo));
  EXPECT_TRUE(m.remove(hi));
}

TEST(SkipVectorBasics, OrderedIteration) {
  Seq<Layout::kSorted, Layout::kUnsorted> m;
  std::vector<std::uint64_t> keys = {5, 1, 9, 3, 7, 2, 8, 0, 6, 4};
  for (auto k : keys) ASSERT_TRUE(m.insert(k, k * 10));
  std::vector<std::uint64_t> seen;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k * 10);
    seen.push_back(k);
  });
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(SkipVectorBasics, SplitsCreateValidStructure) {
  // Insert enough ascending keys through a tiny chunk to force many splits.
  Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  Seq<Layout::kSorted, Layout::kUnsorted> m(c);
  for (std::uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(m.insert(k, k));
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_EQ(m.lookup(k).value(), k) << k;
  }
  auto st = m.stats();
  EXPECT_GT(st.layers[0].nodes, 500u / c.data_capacity());
  EXPECT_GT(st.layers[1].elements, 0u) << "no keys promoted to index layers";
}

TEST(SkipVectorBasics, DescendingInsertionsAndRemovals) {
  Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  Seq<Layout::kSorted, Layout::kUnsorted> m(c);
  for (std::uint64_t k = 300; k-- > 0;) ASSERT_TRUE(m.insert(k, k + 1));
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  for (std::uint64_t k = 0; k < 300; k += 2) ASSERT_TRUE(m.remove(k));
  ASSERT_TRUE(m.validate(&err)) << err;
  for (std::uint64_t k = 0; k < 300; ++k) {
    EXPECT_EQ(m.lookup(k).has_value(), k % 2 == 1) << k;
  }
}

TEST(SkipVectorBasics, RemoveEverythingLeavesCleanSkeleton) {
  Config c;
  c.layer_count = 5;
  c.target_data_vector_size = 2;
  c.target_index_vector_size = 2;
  Seq<Layout::kSorted, Layout::kUnsorted> m(c);
  for (std::uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(m.insert(k, k));
  for (std::uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(m.remove(k)) << k;
  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  EXPECT_EQ(m.size_approx(), 0u);
  std::size_t n = 0;
  m.for_each([&](std::uint64_t, std::uint64_t) { ++n; });
  EXPECT_EQ(n, 0u);
}

// Ranges that lock far more data chunks than the range's inline chunk list
// holds (it spills to the heap past 8): with chunks of capacity 8, the 800
// keys of [100, 899] sit in at least 100 chunks. range_for_each must deliver
// the oracle's sequence, and range_transform must apply fn once per key, in
// ascending order for sorted chunks, under both data layouts.
TEST(SkipVectorBasics, LongRangesMatchOracle) {
  for (const Layout data : {Layout::kSorted, Layout::kUnsorted}) {
    SCOPED_TRACE(vectormap::layout_name(data));
    Config c;
    c.layer_count = 4;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    c.data_layout = data;
    SkipVectorMap<std::uint64_t, std::uint64_t, reclaim::ImmediateReclaimer> m(
        c);
    std::map<std::uint64_t, std::uint64_t> oracle;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 1000; ++k) keys.push_back(k);
    std::shuffle(keys.begin(), keys.end(), std::mt19937_64(7));
    for (const std::uint64_t k : keys) {
      ASSERT_TRUE(m.insert(k, k * 3));
      oracle.emplace(k, k * 3);
    }
    constexpr std::uint64_t kLo = 100;
    constexpr std::uint64_t kHi = 899;
    ASSERT_GE((kHi - kLo + 1) / c.data_capacity(), 40u);

    using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    Pairs got;
    const std::size_t visited = m.range_for_each(
        kLo, kHi,
        [&](std::uint64_t k, std::uint64_t v) { got.emplace_back(k, v); });
    const Pairs expect(oracle.lower_bound(kLo), oracle.upper_bound(kHi));
    ASSERT_EQ(got, expect);
    ASSERT_EQ(visited, expect.size());

    std::map<std::uint64_t, int> applied;
    std::uint64_t prev = 0;
    bool ascending = true;
    const std::size_t transformed = m.range_transform(
        kLo, kHi, [&](std::uint64_t k, std::uint64_t v) {
          if (!applied.empty() && k <= prev) ascending = false;
          prev = k;
          ++applied[k];
          return v + 1;
        });
    for (auto it = oracle.lower_bound(kLo);
         it != oracle.end() && it->first <= kHi; ++it) {
      ++it->second;
    }
    ASSERT_EQ(transformed, expect.size());
    ASSERT_EQ(applied.size(), expect.size());
    for (const auto& [k, n] : applied) ASSERT_EQ(n, 1) << "key " << k;
    if (data == Layout::kSorted) {
      EXPECT_TRUE(ascending);
    }

    got.clear();
    m.for_each(
        [&](std::uint64_t k, std::uint64_t v) { got.emplace_back(k, v); });
    ASSERT_EQ(got, Pairs(oracle.begin(), oracle.end()));
    std::string err;
    ASSERT_TRUE(m.validate(&err)) << err;
  }
}

struct GridParam {
  std::uint32_t t_index;
  std::uint32_t t_data;
  double merge_factor;
  std::uint32_t layers;
};

std::string GridName(const testing::TestParamInfo<GridParam>& info) {
  const auto& p = info.param;
  return "TI" + std::to_string(p.t_index) + "_TD" + std::to_string(p.t_data) +
         "_MF" + std::to_string(static_cast<int>(p.merge_factor * 100)) +
         "_L" + std::to_string(p.layers);
}

class SkipVectorGridTest : public testing::TestWithParam<GridParam> {
 protected:
  // The grid point with the default layouts.
  Config MakeConfig() const {
    Config c;
    c.target_index_vector_size = GetParam().t_index;
    c.target_data_vector_size = GetParam().t_data;
    c.merge_threshold_factor = GetParam().merge_factor;
    c.layer_count = GetParam().layers;
    return c;
  }

  Config WithLayouts(Layout index, Layout data) const {
    Config c = MakeConfig();
    c.index_layout = index;
    c.data_layout = data;
    return c;
  }

  // Random op stream vs oracle; checks result values, range_for_each
  // sequences, final contents, and structural invariants along the way.
  void RunModelCheck(const Config& cfg, std::uint64_t ops,
                     std::uint64_t key_range, std::uint64_t seed) {
    SkipVectorMap<std::uint64_t, std::uint64_t, reclaim::ImmediateReclaimer> m(
        cfg);
    std::map<std::uint64_t, std::uint64_t> oracle;
    Xoshiro256 rng(seed);
    // Range bounds come from their own stream so the op stream depends on
    // the seed alone; an eighth of them have lo > hi or span far.
    Xoshiro256 range_rng(seed + 1);
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (i % 256 == 255) {
        const std::uint64_t lo = range_rng.next_below(key_range);
        const std::uint64_t hi =
            range_rng.next_below(8) == 0
                ? range_rng.next_below(key_range)
                : lo + range_rng.next_below(key_range / 8 + 1);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> expect, got;
        for (auto it = oracle.lower_bound(lo);
             lo <= hi && it != oracle.end() && it->first <= hi; ++it) {
          expect.push_back(*it);
        }
        const std::size_t visited = m.range_for_each(
            lo, hi,
            [&](std::uint64_t k, std::uint64_t v) { got.emplace_back(k, v); });
        ASSERT_EQ(got, expect) << "range [" << lo << ", " << hi << "] @op "
                               << i;
        ASSERT_EQ(visited, expect.size());
      }
      const std::uint64_t k = rng.next_below(key_range);
      switch (rng.next_below(4)) {
        case 0: {  // insert
          const std::uint64_t v = rng.next();
          const bool expect = oracle.emplace(k, v).second;
          ASSERT_EQ(m.insert(k, v), expect) << "insert " << k << " @op " << i;
          break;
        }
        case 1: {  // remove
          const bool expect = oracle.erase(k) > 0;
          ASSERT_EQ(m.remove(k), expect) << "remove " << k << " @op " << i;
          break;
        }
        case 2: {  // update
          auto it = oracle.find(k);
          const std::uint64_t v = rng.next();
          const bool expect = it != oracle.end();
          if (expect) it->second = v;
          ASSERT_EQ(m.update(k, v), expect) << "update " << k << " @op " << i;
          break;
        }
        default: {  // lookup
          auto it = oracle.find(k);
          auto got = m.lookup(k);
          ASSERT_EQ(got.has_value(), it != oracle.end())
              << "lookup " << k << " @op " << i;
          if (got) {
            ASSERT_EQ(*got, it->second) << "lookup value " << k;
          }
          break;
        }
      }
      if (i % 4096 == 4095) {
        std::string err;
        ASSERT_TRUE(m.validate(&err)) << err << " @op " << i;
      }
    }
    // Final reconciliation: identical contents in identical order.
    std::string err;
    ASSERT_TRUE(m.validate(&err)) << err;
    ASSERT_EQ(m.size_approx(), oracle.size());
    auto it = oracle.begin();
    std::uint64_t mismatches = 0;
    m.for_each([&](std::uint64_t k, std::uint64_t v) {
      if (it == oracle.end() || it->first != k || it->second != v) {
        ++mismatches;
      } else {
        ++it;
      }
    });
    ASSERT_EQ(mismatches, 0u);
    ASSERT_TRUE(it == oracle.end());
  }
};

TEST_P(SkipVectorGridTest, ModelCheckSortedIndexUnsortedData) {
  RunModelCheck(WithLayouts(Layout::kSorted, Layout::kUnsorted), 20000, 512,
                42);
}

TEST_P(SkipVectorGridTest, ModelCheckSortedSorted) {
  RunModelCheck(WithLayouts(Layout::kSorted, Layout::kSorted), 12000, 512, 43);
}

TEST_P(SkipVectorGridTest, ModelCheckUnsortedUnsorted) {
  RunModelCheck(WithLayouts(Layout::kUnsorted, Layout::kUnsorted), 12000, 512,
                44);
}

TEST_P(SkipVectorGridTest, ModelCheckUnsortedIndexSortedData) {
  RunModelCheck(WithLayouts(Layout::kUnsorted, Layout::kSorted), 12000, 512,
                45);
}

TEST_P(SkipVectorGridTest, ModelCheckWideKeyRange) {
  RunModelCheck(WithLayouts(Layout::kSorted, Layout::kUnsorted), 8000,
                1u << 30, 46);
}

// The default config and the paper's unsorted data chunks run the same op
// stream and range bounds, so range_for_each must return the same (oracle)
// sequence under both.
TEST_P(SkipVectorGridTest, ModelCheckDefaultConfig) {
  RunModelCheck(MakeConfig(), 12000, 512, 47);
}

TEST_P(SkipVectorGridTest, ModelCheckDefaultConfigUnsortedData) {
  Config c = MakeConfig();
  c.data_layout = Layout::kUnsorted;
  RunModelCheck(c, 12000, 512, 47);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, SkipVectorGridTest,
    testing::Values(GridParam{1, 1, 1.67, 8},    // SL shape
                    GridParam{1, 32, 1.67, 4},   // USL shape
                    GridParam{2, 2, 1.0, 6},     // tiny chunks, eager merge
                    GridParam{4, 4, 1.67, 4},
                    GridParam{8, 32, 0.0, 4},    // merging disabled
                    GridParam{32, 32, 1.67, 3},  // paper default-ish
                    GridParam{32, 32, 2.0, 2},   // few layers
                    GridParam{64, 16, 1.5, 3},
                    GridParam{16, 64, 1.67, 3},
                    GridParam{128, 128, 1.67, 2},
                    GridParam{3, 7, 1.2, 5},     // non-power-of-two chunks
                    GridParam{7, 3, 1.8, 5},
                    GridParam{1, 2, 1.0, 10},    // near-degenerate, tall
                    GridParam{256, 1, 1.67, 6},  // wide index, list data
                    GridParam{1, 256, 1.67, 6},  // list index, wide data
                    GridParam{32, 32, 0.5, 4}),  // shy merging
    GridName);

}  // namespace
}  // namespace sv::core
