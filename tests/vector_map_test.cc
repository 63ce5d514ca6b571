// Unit tests for the VectorMap chunk container: both layouts, boundary
// conditions, and the structural operations (steal/split/merge) the skip
// vector builds on. Typed tests run every case against Sorted and Unsorted.
#include "vectormap/vector_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sv::vectormap {
namespace {

// Owning harness: VectorMap itself is a non-owning view (the skip vector
// packs the arrays into node allocations). The layout is a runtime ctor
// argument now; the template parameter only feeds the typed suite.
template <Layout L>
class Chunk {
 public:
  explicit Chunk(std::uint32_t cap)
      : keys_(std::make_unique<std::atomic<std::uint64_t>[]>(cap)),
        vals_(std::make_unique<std::atomic<std::uint64_t>[]>(cap)),
        map_(keys_.get(), vals_.get(), cap, L) {}
  VectorMap<std::uint64_t, std::uint64_t>& operator*() { return map_; }
  VectorMap<std::uint64_t, std::uint64_t>* operator->() { return &map_; }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> keys_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> vals_;
  VectorMap<std::uint64_t, std::uint64_t> map_;
};

template <class T>
class VectorMapTypedTest : public testing::Test {};

struct SortedTag {
  static constexpr Layout kL = Layout::kSorted;
};
struct UnsortedTag {
  static constexpr Layout kL = Layout::kUnsorted;
};
using Layouts = testing::Types<SortedTag, UnsortedTag>;
TYPED_TEST_SUITE(VectorMapTypedTest, Layouts);

TYPED_TEST(VectorMapTypedTest, EmptyChunk) {
  Chunk<TypeParam::kL> c(8);
  EXPECT_TRUE(c->empty());
  EXPECT_FALSE(c->full());
  EXPECT_EQ(c->size(), 0u);
  EXPECT_FALSE(c->contains(1));
  EXPECT_FALSE(c->get(1).has_value());
  EXPECT_FALSE(c->find_le(100).found);
  EXPECT_FALSE(c->erase(1));
}

TYPED_TEST(VectorMapTypedTest, InsertGetEraseRoundTrip) {
  Chunk<TypeParam::kL> c(8);
  EXPECT_TRUE(c->insert(5, 50));
  EXPECT_TRUE(c->insert(3, 30));
  EXPECT_TRUE(c->insert(7, 70));
  EXPECT_EQ(c->size(), 3u);
  EXPECT_EQ(c->get(3).value(), 30u);
  EXPECT_EQ(c->get(5).value(), 50u);
  EXPECT_EQ(c->get(7).value(), 70u);
  EXPECT_EQ(c->min_key(), 3u);
  EXPECT_EQ(c->max_key(), 7u);
  std::uint64_t out = 0;
  EXPECT_TRUE(c->erase(5, &out));
  EXPECT_EQ(out, 50u);
  EXPECT_FALSE(c->contains(5));
  EXPECT_EQ(c->size(), 2u);
}

TYPED_TEST(VectorMapTypedTest, InsertRejectsWhenFull) {
  Chunk<TypeParam::kL> c(4);
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_TRUE(c->insert(k, k));
  EXPECT_TRUE(c->full());
  EXPECT_FALSE(c->insert(99, 99));
  EXPECT_EQ(c->size(), 4u);
}

TYPED_TEST(VectorMapTypedTest, FindLESemantics) {
  Chunk<TypeParam::kL> c(8);
  for (std::uint64_t k : {10u, 20u, 30u}) ASSERT_TRUE(c->insert(k, k * 2));
  auto r = c->find_le(25);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 20u);
  EXPECT_EQ(r.val, 40u);
  r = c->find_le(30);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 30u);  // exact match is <=
  r = c->find_le(9);
  EXPECT_FALSE(r.found);  // everything greater
  r = c->find_le(1000);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 30u);
}

TYPED_TEST(VectorMapTypedTest, AssignOverwritesInPlace) {
  Chunk<TypeParam::kL> c(4);
  ASSERT_TRUE(c->insert(1, 10));
  EXPECT_TRUE(c->assign(1, 11));
  EXPECT_EQ(c->get(1).value(), 11u);
  EXPECT_FALSE(c->assign(2, 20));
  EXPECT_EQ(c->size(), 1u);
}

TYPED_TEST(VectorMapTypedTest, StealGreaterMovesStrictSuffix) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 3u, 5u, 7u, 9u}) ASSERT_TRUE(a->insert(k, k));
  a->steal_greater(5, *b);
  EXPECT_EQ(a->size(), 3u);  // 1, 3, 5 (pivot itself stays)
  EXPECT_EQ(b->size(), 2u);  // 7, 9
  EXPECT_TRUE(a->contains(5));
  EXPECT_FALSE(a->contains(7));
  EXPECT_EQ(b->min_key(), 7u);
  EXPECT_EQ(b->max_key(), 9u);
}

TYPED_TEST(VectorMapTypedTest, StealGreaterWithNoMatchesIsNoop) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u, 3u}) ASSERT_TRUE(a->insert(k, k));
  a->steal_greater(100, *b);
  EXPECT_EQ(a->size(), 3u);
  EXPECT_TRUE(b->empty());
}

TYPED_TEST(VectorMapTypedTest, SplitHalfBalances) {
  Chunk<TypeParam::kL> a(16), b(16);
  for (std::uint64_t k = 0; k < 16; ++k) ASSERT_TRUE(a->insert(k * 10, k));
  const std::uint64_t b_min = a->split_half(*b);
  EXPECT_EQ(a->size(), 8u);
  EXPECT_EQ(b->size(), 8u);
  EXPECT_EQ(b_min, b->min_key());
  EXPECT_LT(a->max_key(), b->min_key()) << "split must preserve key order";
}

TYPED_TEST(VectorMapTypedTest, SplitHalfOddCount) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u, 3u, 4u, 5u}) ASSERT_TRUE(a->insert(k, k));
  a->split_half(*b);
  EXPECT_EQ(a->size() + b->size(), 5u);
  EXPECT_GE(a->size(), 2u);
  EXPECT_GE(b->size(), 2u);
  EXPECT_LT(a->max_key(), b->min_key());
}

TYPED_TEST(VectorMapTypedTest, MergeFromRightNeighbor) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u}) ASSERT_TRUE(a->insert(k, k * 10));
  for (std::uint64_t k : {5u, 6u, 7u}) ASSERT_TRUE(b->insert(k, k * 10));
  a->merge_from(*b);
  EXPECT_EQ(a->size(), 5u);
  EXPECT_TRUE(b->empty());
  for (std::uint64_t k : {1u, 2u, 5u, 6u, 7u}) {
    EXPECT_EQ(a->get(k).value(), k * 10) << k;
  }
}

TYPED_TEST(VectorMapTypedTest, OrderedIterationIsSorted) {
  Chunk<TypeParam::kL> c(16);
  std::vector<std::uint64_t> keys = {9, 2, 14, 7, 1, 11, 4};
  for (auto k : keys) ASSERT_TRUE(c->insert(k, k + 100));
  std::vector<std::uint64_t> seen;
  c->for_each_ordered([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k + 100);
    seen.push_back(k);
  });
  ASSERT_EQ(seen.size(), keys.size());
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
}

// The bounded visit returns exactly the in-range pairs, in key order, for
// random contents (some chunks empty, unsorted ones reordered by erases)
// and random bounds, including lo > hi and bounds outside the chunk's keys.
TYPED_TEST(VectorMapTypedTest, BoundedOrderedVisitMatchesOracle) {
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  Xoshiro256 rng(777);
  for (std::uint64_t round = 0; round < 2000; ++round) {
    Chunk<TypeParam::kL> c(32);
    std::map<std::uint64_t, std::uint64_t> oracle;
    const std::uint64_t n = rng.next_below(33);
    while (oracle.size() < n) {
      const std::uint64_t k = 100 + rng.next_below(200);
      if (oracle.emplace(k, k ^ round).second) {
        ASSERT_TRUE(c->insert(k, k ^ round));
      }
    }
    for (std::uint64_t i = rng.next_below(4); i > 0 && !oracle.empty(); --i) {
      auto it = oracle.begin();
      std::advance(it, rng.next_below(oracle.size()));
      ASSERT_TRUE(c->erase(it->first));
      oracle.erase(it);
    }
    Pairs bounds = {{0, kMax}, {kMax, 0}, {0, 99}, {300, kMax}};
    for (int q = 0; q < 8; ++q) {
      bounds.emplace_back(rng.next_below(400), rng.next_below(400));
    }
    for (const auto& [lo, hi] : bounds) {
      Pairs expect;
      if (lo <= hi) {
        for (auto it = oracle.lower_bound(lo);
             it != oracle.end() && it->first <= hi; ++it) {
          expect.push_back(*it);
        }
      }
      Pairs got;
      const std::uint32_t visited = c->for_each_ordered(
          lo, hi, [&](std::uint64_t k, std::uint64_t v) {
            got.emplace_back(k, v);
          });
      ASSERT_EQ(got, expect) << "lo=" << lo << " hi=" << hi;
      ASSERT_EQ(visited, expect.size());
    }
  }
}

TYPED_TEST(VectorMapTypedTest, RandomizedOracle) {
  Chunk<TypeParam::kL> c(64);
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(12345);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(100);
    switch (rng.next_below(4)) {
      case 0:
        if (oracle.size() < 64 && !oracle.count(k)) {
          const std::uint64_t v = rng.next();
          ASSERT_TRUE(c->insert(k, v));
          oracle[k] = v;
        }
        break;
      case 1:
        ASSERT_EQ(c->erase(k), oracle.erase(k) > 0);
        break;
      case 2: {
        auto it = oracle.find(k);
        const std::uint64_t v = rng.next();
        ASSERT_EQ(c->assign(k, v), it != oracle.end());
        if (it != oracle.end()) it->second = v;
        break;
      }
      default: {
        auto got = c->get(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(c->size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(c->min_key(), oracle.begin()->first);
      ASSERT_EQ(c->max_key(), oracle.rbegin()->first);
    }
  }
}

TYPED_TEST(VectorMapTypedTest, FindGESemantics) {
  Chunk<TypeParam::kL> c(8);
  for (std::uint64_t k : {10u, 20u, 30u}) ASSERT_TRUE(c->insert(k, k * 2));
  auto r = c->find_ge(15);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 20u);
  EXPECT_EQ(r.val, 40u);
  r = c->find_ge(20);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 20u);  // exact match is >=
  r = c->find_ge(31);
  EXPECT_FALSE(r.found);  // everything smaller
  r = c->find_ge(0);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.key, 10u);
}

TYPED_TEST(VectorMapTypedTest, MinMaxEntry) {
  Chunk<TypeParam::kL> c(8);
  EXPECT_FALSE(c->min_entry().found);
  EXPECT_FALSE(c->max_entry().found);
  for (std::uint64_t k : {7u, 3u, 9u, 5u}) ASSERT_TRUE(c->insert(k, k + 1));
  auto mn = c->min_entry();
  auto mx = c->max_entry();
  ASSERT_TRUE(mn.found && mx.found);
  EXPECT_EQ(mn.key, 3u);
  EXPECT_EQ(mn.val, 4u);
  EXPECT_EQ(mx.key, 9u);
  EXPECT_EQ(mx.val, 10u);
}

TYPED_TEST(VectorMapTypedTest, TransformRangeTouchesExactlyTheRange) {
  Chunk<TypeParam::kL> c(16);
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(c->insert(k, 0));
  const std::uint32_t n =
      c->transform_range(3, 6, [](std::uint64_t k, std::uint64_t) {
        return k * 100;
      });
  EXPECT_EQ(n, 4u);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(c->get(k).value(), (k >= 3 && k <= 6) ? k * 100 : 0u) << k;
  }
  // Degenerate ranges.
  EXPECT_EQ(c->transform_range(100, 200, [](auto, auto v) { return v; }), 0u);
  EXPECT_EQ(c->transform_range(5, 5, [](auto, auto) { return 1u; }), 1u);
}

TYPED_TEST(VectorMapTypedTest, CapacityOneChunk) {
  Chunk<TypeParam::kL> c(1);
  EXPECT_TRUE(c->insert(5, 50));
  EXPECT_TRUE(c->full());
  EXPECT_FALSE(c->insert(6, 60));
  EXPECT_EQ(c->min_key(), 5u);
  EXPECT_EQ(c->max_key(), 5u);
  EXPECT_TRUE(c->erase(5));
  EXPECT_TRUE(c->empty());
}

TYPED_TEST(VectorMapTypedTest, MergeIntoPartiallyFilled) {
  Chunk<TypeParam::kL> a(8), b(8);
  for (std::uint64_t k : {1u, 2u, 3u}) ASSERT_TRUE(a->insert(k, k));
  for (std::uint64_t k : {10u, 11u}) ASSERT_TRUE(b->insert(k, k));
  a->merge_from(*b);
  EXPECT_EQ(a->size(), 5u);
  EXPECT_TRUE(b->empty());
  EXPECT_EQ(a->min_key(), 1u);
  EXPECT_EQ(a->max_key(), 11u);
}

// Layout-specific behaviors.
TEST(VectorMapSorted, KeysStoredInOrderEnablesBinarySearch) {
  Chunk<Layout::kSorted> c(8);
  for (std::uint64_t k : {5u, 1u, 3u}) ASSERT_TRUE(c->insert(k, k));
  std::vector<std::uint64_t> raw;
  c->for_each([&](std::uint64_t k, std::uint64_t) { raw.push_back(k); });
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_TRUE(raw[0] < raw[1] && raw[1] < raw[2])
      << "sorted layout must keep physical order";
}

TEST(VectorMapUnsorted, InsertAppendsConstantTime) {
  Chunk<Layout::kUnsorted> c(8);
  for (std::uint64_t k : {5u, 1u, 3u}) ASSERT_TRUE(c->insert(k, k));
  std::vector<std::uint64_t> raw;
  c->for_each([&](std::uint64_t k, std::uint64_t) { raw.push_back(k); });
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], 5u);  // append order preserved
  EXPECT_EQ(raw[1], 1u);
  EXPECT_EQ(raw[2], 3u);
}

TEST(VectorMapSpeculation, ClampedSizeNeverExceedsCapacity) {
  // A racing writer can make `size` transiently exceed what a reader should
  // trust; size() must clamp so scans stay in bounds.
  Chunk<Layout::kUnsorted> c(4);
  for (std::uint64_t k = 0; k < 4; ++k) ASSERT_TRUE(c->insert(k, k));
  EXPECT_EQ(c->size(), 4u);
  EXPECT_TRUE(c->full());
}

}  // namespace
}  // namespace sv::vectormap
