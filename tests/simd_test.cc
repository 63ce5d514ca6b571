// Tests for chunk search (src/common/simd.h) and the VectorMap searches
// built on it:
//
//   1. The scalar routines against independent oracles over random
//      duplicate-free chunks of every size 0..300, with boundary keys (0,
//      max) and probes at existing keys, their neighbors and the extremes:
//      the sorted bounds against std::lower_bound/upper_bound, the
//      loader-form unsorted find_le/find_ge/find_eq against a sorted copy
//      searched with std::upper_bound/lower_bound and against std::find.
//   2. VectorMap: search results match a std::map oracle under both
//      layouts, and a sweep grows a chunk of each layout one insert at a
//      time and checks its searches at every fill.
//   3. Torn reads: a writer mutating a chunk under its sequence lock while
//      readers run speculative find_le/find_ge; every validated read is
//      consistent and the retry loop converges.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/simd.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "lsan_guard.h"
#include "sync/sequence_lock.h"
#include "vectormap/vector_map.h"

namespace {

using sv::simd::kNpos;
using sv::sync::SequenceLock;
using sv::vectormap::Layout;
using sv::vectormap::VectorMap;

template <class K>
class SimdKernelTest : public ::testing::Test {};
using KernelKeyTypes = ::testing::Types<std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(SimdKernelTest, KernelKeyTypes);

// Duplicate-free random keys, with the boundary values 0 and max forced in
// for the larger sizes so the extremes are always exercised.
template <class K>
std::vector<K> make_keys(std::mt19937_64& rng, std::uint32_t n) {
  std::vector<K> keys;
  std::uniform_int_distribution<K> dist(0, std::numeric_limits<K>::max());
  while (keys.size() < n) {
    K k = dist(rng);
    if (keys.size() == 7) k = 0;
    if (keys.size() == 11) k = std::numeric_limits<K>::max();
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

// Probes worth checking for a chunk: every present key and its neighbors,
// plus the global extremes and a few random values.
template <class K>
std::vector<K> make_probes(std::mt19937_64& rng, const std::vector<K>& keys) {
  std::vector<K> probes{K{0}, K{1}, std::numeric_limits<K>::max(),
                        static_cast<K>(std::numeric_limits<K>::max() - 1)};
  for (const K k : keys) {
    probes.push_back(k);
    probes.push_back(static_cast<K>(k - 1));
    probes.push_back(static_cast<K>(k + 1));
  }
  std::uniform_int_distribution<K> dist(0, std::numeric_limits<K>::max());
  for (int i = 0; i < 8; ++i) probes.push_back(dist(rng));
  return probes;
}

TYPED_TEST(SimdKernelTest, SortedBoundsMatchStd) {
  using K = TypeParam;
  std::mt19937_64 rng(42);
  for (std::uint32_t n = 0; n <= 300; ++n) {
    std::vector<K> keys = make_keys<K>(rng, n);
    std::sort(keys.begin(), keys.end());
    for (const K k : make_probes(rng, keys)) {
      const auto lb = static_cast<std::uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
      const auto ub = static_cast<std::uint32_t>(
          std::upper_bound(keys.begin(), keys.end(), k) - keys.begin());
      ASSERT_EQ(sv::simd::scalar::lower_bound(keys.data(), n, k), lb)
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::scalar::upper_bound(keys.data(), n, k), ub)
          << "n=" << n << " k=" << k;
    }
  }
}

// The loader-form unsorted searches, called as VectorMap calls them,
// against an oracle that shares no code with them: a sorted copy searched
// with std::upper_bound / std::lower_bound, and std::find.
TYPED_TEST(SimdKernelTest, UnsortedSearchesMatchOracle) {
  using K = TypeParam;
  std::mt19937_64 rng(43);
  for (std::uint32_t n = 0; n <= 300; ++n) {
    const std::vector<K> keys = make_keys<K>(rng, n);
    std::vector<K> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    const auto load = [&keys](std::uint32_t i) { return keys[i]; };
    const auto index_of = [&keys](K v) {
      const auto it = std::find(keys.begin(), keys.end(), v);
      return it == keys.end() ? kNpos
                              : static_cast<std::uint32_t>(it - keys.begin());
    };
    for (const K k : make_probes(rng, keys)) {
      const auto ub = std::upper_bound(sorted.begin(), sorted.end(), k);
      const auto lb = std::lower_bound(sorted.begin(), sorted.end(), k);
      ASSERT_EQ(sv::simd::scalar::find_le(load, n, k),
                ub == sorted.begin() ? kNpos : index_of(*(ub - 1)))
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::scalar::find_ge(load, n, k),
                lb == sorted.end() ? kNpos : index_of(*lb))
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::scalar::find_eq(load, n, k), index_of(k))
          << "n=" << n << " k=" << k;
    }
  }
}

TYPED_TEST(SimdKernelTest, ScalarReferenceAgainstOracle) {
  using K = TypeParam;
  // Hand-checkable chunks, so a failure above can be told apart from a
  // broken oracle.
  const std::vector<K> keys{5, 0, 17, 3, 9};
  const auto load = [&keys](std::uint32_t i) { return keys[i]; };
  EXPECT_EQ(sv::simd::scalar::find_le(load, 5, K{4}), 3u);   // key 3
  EXPECT_EQ(sv::simd::scalar::find_le(load, 5, K{17}), 2u);  // key 17
  EXPECT_EQ(sv::simd::scalar::find_le(load, 5, K{0}), 1u);   // key 0
  EXPECT_EQ(sv::simd::scalar::find_ge(load, 5, K{10}), 2u);  // key 17
  EXPECT_EQ(sv::simd::scalar::find_ge(load, 5, K{18}), kNpos);
  EXPECT_EQ(sv::simd::scalar::find_eq(load, 5, K{9}), 4u);
  EXPECT_EQ(sv::simd::scalar::find_eq(load, 5, K{2}), kNpos);
  EXPECT_EQ(sv::simd::scalar::find_le(load, 0, K{4}), kNpos);
}

// ---- VectorMap searches -----------------------------------------------------

template <Layout L>
struct Chunk {
  explicit Chunk(std::uint32_t cap)
      : keys(std::make_unique<std::atomic<std::uint64_t>[]>(cap)),
        vals(std::make_unique<std::atomic<std::uint64_t>[]>(cap)),
        vm(keys.get(), vals.get(), cap, L) {}
  std::unique_ptr<std::atomic<std::uint64_t>[]> keys;
  std::unique_ptr<std::atomic<std::uint64_t>[]> vals;
  VectorMap<std::uint64_t, std::uint64_t> vm;
};

template <Layout L>
void vectormap_oracle_parity() {
  std::mt19937_64 rng(7);
  for (const std::uint32_t cap : {1u, 2u, 7u, 64u, 129u, 256u}) {
    Chunk<L> c(cap);
    std::map<std::uint64_t, std::uint64_t> oracle;
    std::uniform_int_distribution<std::uint64_t> dist(0, 3 * cap);
    while (oracle.size() < cap) {
      const std::uint64_t k = dist(rng);
      if (oracle.emplace(k, k * 2 + 1).second) {
        ASSERT_TRUE(c.vm.insert(k, k * 2 + 1));
      }
    }
    for (std::uint64_t k = 0; k <= 3 * cap + 2; ++k) {
      const auto fle = c.vm.find_le(k);
      auto it = oracle.upper_bound(k);
      if (it == oracle.begin()) {
        EXPECT_FALSE(fle.found);
      } else {
        --it;
        ASSERT_TRUE(fle.found) << "k=" << k;
        EXPECT_EQ(fle.key, it->first);
        EXPECT_EQ(fle.val, it->second);
      }
      const auto fge = c.vm.find_ge(k);
      const auto ge = oracle.lower_bound(k);
      if (ge == oracle.end()) {
        EXPECT_FALSE(fge.found);
      } else {
        ASSERT_TRUE(fge.found) << "k=" << k;
        EXPECT_EQ(fge.key, ge->first);
        EXPECT_EQ(fge.val, ge->second);
      }
      const auto got = c.vm.get(k);
      const auto oit = oracle.find(k);
      EXPECT_EQ(got.has_value(), oit != oracle.end());
      if (got && oit != oracle.end()) {
        EXPECT_EQ(*got, oit->second);
      }
    }
    EXPECT_EQ(c.vm.min_key(), oracle.begin()->first);
    EXPECT_EQ(c.vm.max_key(), oracle.rbegin()->first);
    EXPECT_EQ(c.vm.min_entry().val, oracle.begin()->second);
    EXPECT_EQ(c.vm.max_entry().val, oracle.rbegin()->second);
    // Erase half and re-check exact lookups through the deduped helpers.
    std::vector<std::uint64_t> keys;
    for (const auto& [k, v] : oracle) keys.push_back(k);
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      EXPECT_TRUE(c.vm.erase(keys[i]));
      oracle.erase(keys[i]);
    }
    for (const std::uint64_t k : keys) {
      EXPECT_EQ(c.vm.contains(k), oracle.count(k) == 1) << "k=" << k;
    }
  }
}

TEST(VectorMapRouting, SortedMatchesOracle) {
  vectormap_oracle_parity<Layout::kSorted>();
}
TEST(VectorMapRouting, UnsortedMatchesOracle) {
  vectormap_oracle_parity<Layout::kUnsorted>();
}

// Every fill of a chunk, not just full and half-full ones: the sorted
// narrowing takes a different number of steps at each n, and an off-by-one
// in its last step shows only around n = 2^j; the unsorted scan must stop
// at every n. The chunk grows one insert at a time in random key order; at
// each fill n (0..cap) every key, its neighbours and the extremes are
// probed against std::lower_bound and std::upper_bound on a sorted copy.
template <class K>
void sweep_every_fill(Layout layout) {
  SCOPED_TRACE(layout == Layout::kSorted ? "sorted" : "unsorted");
  std::mt19937_64 rng(11);
  for (const std::uint32_t cap : {64u, 128u, 129u}) {
    auto keys = std::make_unique<std::atomic<K>[]>(cap);
    auto vals = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
    VectorMap<K, std::uint64_t> vm(keys.get(), vals.get(), cap, layout);
    const auto val_of = [](K k) { return static_cast<std::uint64_t>(k) * 3 + 1; };
    std::uniform_int_distribution<K> dist(std::numeric_limits<K>::min() + 2,
                                          std::numeric_limits<K>::max() - 2);
    std::vector<K> sorted;
    for (std::uint32_t n = 0;; ++n) {
      ASSERT_EQ(vm.size(), n);
      if (layout == Layout::kSorted) {
        std::uint32_t slot = 0;
        vm.for_each([&](K k, std::uint64_t) {
          ASSERT_EQ(k, sorted[slot++]) << "cap=" << cap << " n=" << n;
        });
      }
      std::vector<K> probes{std::numeric_limits<K>::min(), K{0},
                            std::numeric_limits<K>::max()};
      for (const K k : sorted) {
        probes.insert(probes.end(), {k, static_cast<K>(k - 1),
                                     static_cast<K>(k + 1)});
      }
      for (const K p : probes) {
        const auto lb = static_cast<std::uint32_t>(
            std::lower_bound(sorted.begin(), sorted.end(), p) - sorted.begin());
        const auto ub = static_cast<std::uint32_t>(
            std::upper_bound(sorted.begin(), sorted.end(), p) - sorted.begin());
        const bool present = lb < n && sorted[lb] == p;
        const auto le = vm.find_le(p);
        ASSERT_EQ(le.found, ub > 0) << "cap=" << cap << " n=" << n;
        if (ub > 0) {
          ASSERT_EQ(le.key, sorted[ub - 1]) << "cap=" << cap << " n=" << n;
          ASSERT_EQ(le.val, val_of(le.key));
        }
        const auto ge = vm.find_ge(p);
        ASSERT_EQ(ge.found, lb < n) << "cap=" << cap << " n=" << n;
        if (lb < n) {
          ASSERT_EQ(ge.key, sorted[lb]) << "cap=" << cap << " n=" << n;
          ASSERT_EQ(ge.val, val_of(ge.key));
        }
        ASSERT_EQ(vm.contains(p), present) << "cap=" << cap << " n=" << n;
        const auto got = vm.get(p);
        ASSERT_EQ(got.has_value(), present) << "cap=" << cap << " n=" << n;
        if (present) {
          ASSERT_EQ(*got, val_of(p));
        }
      }
      if (n == cap) break;
      K k = dist(rng);
      while (std::binary_search(sorted.begin(), sorted.end(), k)) {
        k = dist(rng);
      }
      ASSERT_TRUE(vm.insert(k, val_of(k)));
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), k), k);
    }
    EXPECT_TRUE(vm.full());
  }
}

// The map's own key type.
TEST(VectorMapSortedSweep, EveryFillU64) {
  sweep_every_fill<std::uint64_t>(Layout::kSorted);
  sweep_every_fill<std::uint64_t>(Layout::kUnsorted);
}
// A signed key type: the searches compare K, not its bits.
TEST(VectorMapSortedSweep, EveryFillSignedKeys) {
  sweep_every_fill<std::int64_t>(Layout::kSorted);
  sweep_every_fill<std::int64_t>(Layout::kUnsorted);
}

// ---- Torn-read convergence ---------------------------------------------------

// A writer churns a chunk under its sequence lock while readers run the
// speculative protocol (read_begin -> find_le/find_ge -> validate). The
// searches may observe arbitrarily torn states mid-mutation; the property
// is that validated results are always consistent (key from the maintained
// universe, val == key * 3, correct side of the probe) and that readers
// keep making progress (the retry loop converges).
template <Layout L>
void torn_read_convergence() {
  constexpr std::uint32_t kCap = 128;
  Chunk<L> c(kCap);
  SequenceLock lock;
  // Universe: even keys 2..2*kCap; writer inserts/erases them, val = 3*key.
  for (std::uint64_t k = 2; k <= kCap; k += 2) c.vm.insert(k, k * 3);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> validated{0};

  std::thread writer([&] {
    std::mt19937_64 rng(11);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k =
          2 * (1 + rng() % kCap);  // even keys only, 2..2*kCap
      lock.acquire();
      std::uint64_t dummy;
      if (!c.vm.erase(k, &dummy)) c.vm.insert(k, k * 3);
      lock.release();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      std::uint64_t mine = 0;
      while (mine < 3000) {
        const std::uint64_t probe = rng() % (2 * kCap + 3);
        const auto w = lock.read_begin();
        const auto fle = c.vm.find_le(probe);
        const auto fge = c.vm.find_ge(probe);
        if (!lock.validate(w)) continue;  // torn: retry (must converge)
        if (fle.found) {
          EXPECT_LE(fle.key, probe);
          EXPECT_EQ(fle.key % 2, 0u);
          EXPECT_EQ(fle.val, fle.key * 3);
        }
        if (fge.found) {
          EXPECT_GE(fge.key, probe);
          EXPECT_EQ(fge.key % 2, 0u);
          EXPECT_EQ(fge.val, fge.key * 3);
        }
        ++mine;
      }
      validated.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(validated.load(), 2u * 3000u);
}

TEST(TornReads, SortedConverges) { torn_read_convergence<Layout::kSorted>(); }
TEST(TornReads, UnsortedConverges) {
  torn_read_convergence<Layout::kUnsorted>();
}

// ---- Full-map parity under every reclaimer -----------------------------------

template <class Map>
class SimdMapParityTest : public ::testing::Test {};
using MapTypes =
    ::testing::Types<sv::core::SkipVector<std::uint64_t, std::uint64_t>,
                     sv::core::SkipVectorLeak<std::uint64_t, std::uint64_t>,
                     sv::core::SkipVectorSeq<std::uint64_t, std::uint64_t>,
                     sv::core::SkipVectorEpoch<std::uint64_t, std::uint64_t>>;
TYPED_TEST_SUITE(SimdMapParityTest, MapTypes);

// The read path (lookup, floor, ceiling -- every descent plus every chunk
// search) agrees with std::map under each reclaimer variant.
TYPED_TEST(SimdMapParityTest, ReadPathMatchesOracle) {
  const sv::test::LeakCheckDisabler allow_designed_leaks(
      std::is_same_v<TypeParam,
                     sv::core::SkipVectorLeak<std::uint64_t, std::uint64_t>>);
  TypeParam m(sv::core::Config::for_elements(4096));
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t k = rng() % 8192;
    if (oracle.emplace(k, k + 1).second) {
      EXPECT_TRUE(m.insert(k, k + 1));
    }
  }
  for (int i = 0; i < 2048; ++i) {
    const std::uint64_t k = rng() % 8192;
    if (oracle.erase(k) != 0) {
      EXPECT_TRUE(m.remove(k));
    }
  }
  for (std::uint64_t k = 0; k < 8192; k += 3) {
    const auto got = m.lookup(k);
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << "k=" << k;
    if (got) {
      EXPECT_EQ(*got, it->second);
    }

    const auto fl = m.floor(k);
    auto ub = oracle.upper_bound(k);
    if (ub == oracle.begin()) {
      EXPECT_FALSE(fl.has_value());
    } else {
      --ub;
      ASSERT_TRUE(fl.has_value()) << "k=" << k;
      EXPECT_EQ(fl->first, ub->first);
    }

    const auto ce = m.ceiling(k);
    const auto lb = oracle.lower_bound(k);
    if (lb == oracle.end()) {
      EXPECT_FALSE(ce.has_value());
    } else {
      ASSERT_TRUE(ce.has_value()) << "k=" << k;
      EXPECT_EQ(ce->first, lb->first);
    }
  }
}

}  // namespace
