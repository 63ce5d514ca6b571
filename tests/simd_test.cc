// Parity and property tests for the vectorized chunk-search layer:
//
//   1. Kernel parity: sv::simd frontends are element-identical to the
//      sv::simd::scalar reference (and to std::lower_bound/upper_bound for
//      the sorted shapes) over random duplicate-free chunks of every size
//      0..capacity, with boundary keys (0, max) and probes at existing
//      keys, their neighbors, and the extremes.
//   2. Routing: VectorMap search results match a std::map oracle under
//      both layouts whatever path kRawScan selected, and the scalar
//      atomic-load path is provably selected under ThreadSanitizer and
//      SV_FORCE_SCALAR (compile-time asserts).
//   3. Torn reads: a writer mutating a chunk under its sequence lock while
//      readers run speculative find_le/find_ge raw scans; every validated
//      read is consistent and the retry loop converges.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
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

#if defined(__SANITIZE_THREAD__)
#define SV_TEST_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SV_TEST_TSAN 1
#endif
#endif

// The scalar atomic-load path must be provably selected when raw scans
// would be invisible to TSan, and under the explicit escape hatch.
#if defined(SV_TEST_TSAN) || defined(SV_FORCE_SCALAR)
static_assert(!VectorMap<std::uint64_t, std::uint64_t>::kRawScan);
static_assert(!VectorMap<std::uint32_t, std::uint32_t>::kRawScan);
#endif
#if defined(SV_FORCE_SCALAR)
static_assert(!sv::simd::vectorized_v<std::uint32_t>);
static_assert(!sv::simd::vectorized_v<std::uint64_t>);
#endif

template <class K>
class SimdKernelTest : public ::testing::Test {};
using KernelKeyTypes = ::testing::Types<std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(SimdKernelTest, KernelKeyTypes);

// Duplicate-free random keys, with the boundary values 0 and max forced in
// for the larger sizes so the bias trick's edge cases are always exercised.
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
      ASSERT_EQ(sv::simd::lower_bound(keys.data(), n, k), lb)
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::upper_bound(keys.data(), n, k), ub)
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::scalar::lower_bound(keys.data(), n, k), lb);
      ASSERT_EQ(sv::simd::scalar::upper_bound(keys.data(), n, k), ub);
    }
  }
}

TYPED_TEST(SimdKernelTest, UnsortedSearchesMatchScalarReference) {
  using K = TypeParam;
  std::mt19937_64 rng(43);
  for (std::uint32_t n = 0; n <= 300; ++n) {
    const std::vector<K> keys = make_keys<K>(rng, n);
    for (const K k : make_probes(rng, keys)) {
      const std::uint32_t le_ref = sv::simd::scalar::find_le(keys.data(), n, k);
      const std::uint32_t ge_ref = sv::simd::scalar::find_ge(keys.data(), n, k);
      const std::uint32_t eq_ref = sv::simd::scalar::find_eq(keys.data(), n, k);
      // Keys are duplicate-free, so the best-qualifying index is unique and
      // the dispatch result must be element-identical, not merely tied.
      ASSERT_EQ(sv::simd::find_le(keys.data(), n, k), le_ref)
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::find_ge(keys.data(), n, k), ge_ref)
          << "n=" << n << " k=" << k;
      ASSERT_EQ(sv::simd::find_eq(keys.data(), n, k), eq_ref)
          << "n=" << n << " k=" << k;
    }
  }
}

TYPED_TEST(SimdKernelTest, ScalarReferenceAgainstOracle) {
  using K = TypeParam;
  // Pin the reference itself against a transparent O(n) oracle on a few
  // hand-checkable chunks (the property tests above lean on it).
  const std::vector<K> keys{5, 0, 17, 3, 9};
  EXPECT_EQ(sv::simd::scalar::find_le(keys.data(), 5, K{4}), 3u);   // key 3
  EXPECT_EQ(sv::simd::scalar::find_le(keys.data(), 5, K{17}), 2u);  // key 17
  EXPECT_EQ(sv::simd::scalar::find_le(keys.data(), 5, K{0}), 1u);   // key 0
  EXPECT_EQ(sv::simd::scalar::find_ge(keys.data(), 5, K{10}), 2u);  // key 17
  EXPECT_EQ(sv::simd::scalar::find_ge(keys.data(), 5, K{18}), kNpos);
  EXPECT_EQ(sv::simd::scalar::find_eq(keys.data(), 5, K{9}), 4u);
  EXPECT_EQ(sv::simd::scalar::find_eq(keys.data(), 5, K{2}), kNpos);
  EXPECT_EQ(sv::simd::scalar::find_le(keys.data(), 0, K{4}), kNpos);
}

// ---- VectorMap routing parity ----------------------------------------------

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

// ---- Torn-read convergence ---------------------------------------------------

// A writer churns a chunk under its sequence lock while readers run the
// speculative protocol (read_begin -> find_le/find_ge -> validate). The
// raw-scan kernels may observe arbitrarily torn states mid-mutation; the
// property is that validated results are always consistent (key from the
// maintained universe, val == key * 3, correct side of the probe) and that
// readers keep making progress (the retry loop converges).
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

// The SIMD-routed read path (lookup, floor, ceiling -- every descent plus
// every chunk search) agrees with std::map under each reclaimer variant.
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
