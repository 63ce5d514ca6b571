// Range scans racing structural churn (splits, merges, steal-above),
// executed identically across every reclamation policy. Scans must return
// legal snapshots: strictly ascending keys inside the requested interval,
// no duplicates, no phantoms (keys never inserted), values consistent with
// their keys, and permanently-resident anchor keys always observed. A
// global yield schedule on the structural fault-injection points widens the
// split/merge windows the scans race against.
#include <gtest/gtest.h>

#include <atomic>
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
#include "lsan_guard.h"

namespace sv::core {
namespace {

using sv::test::LeakCheckDisabler;

template <class R>
struct Policy {
  using Reclaimer = R;
};

using Policies =
    testing::Types<Policy<reclaim::HazardReclaimer>,
                   Policy<reclaim::EpochReclaimer>,
                   Policy<reclaim::LeakReclaimer>>;

template <class P>
class RangeScanStressTest : public testing::Test {
 protected:
  using Map = SkipVectorMap<std::uint64_t, std::uint64_t,
                            typename P::Reclaimer>;

  // LeakReclaimer on the malloc passthrough leaks its unlinked chunks by
  // design: exempt only that map from LeakSanitizer, on every thread that
  // allocates through it.
  static constexpr bool kLeaksByDesign =
      std::is_same_v<typename P::Reclaimer, reclaim::LeakReclaimer>;
  const LeakCheckDisabler body_guard_{kLeaksByDesign};

  // Tiny chunks so churn constantly splits and merges data vectors.
  static Config Cfg() {
    Config c;
    c.layer_count = 4;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    return c;
  }

#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION
  void SetUp() override {
    debug::FaultInjector::instance().install(
        debug::Schedule::parse("seed=5;pyield=0.1"));
  }
  void TearDown() override { debug::FaultInjector::instance().clear(); }
#endif
};

TYPED_TEST_SUITE(RangeScanStressTest, Policies);

TYPED_TEST(RangeScanStressTest, ScansObserveLegalSnapshots) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kRange = 1024;
  constexpr std::uint64_t kAnchorStride = 16;  // anchors never removed

  for (std::uint64_t k = kAnchorStride; k < kRange; k += kAnchorStride) {
    ASSERT_TRUE(m.insert(k, (k << 32) | 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;

  // Mutators: churn the non-anchor keys hard enough that chunks split,
  // drain, merge, and steal-above continuously.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < 12000; ++i) {
        const std::uint64_t k = 1 + rng.next_below(kRange - 1);
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

  // Scanners: overlapping windows; every snapshot must be legal.
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([&, s] {
      const LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(200 + s);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = 1 + rng.next_below(kRange - 300);
        const std::uint64_t hi = lo + 64 + rng.next_below(256);
        got.clear();
        m.range_for_each(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
          got.emplace_back(k, v);
        });
        // In-interval, strictly ascending (=> no duplicates), no phantoms
        // beyond the workload's key universe, values tagged with their key.
        std::uint64_t prev = 0;
        bool first = true;
        for (const auto& [k, v] : got) {
          if (k < lo || k > hi) errors.fetch_add(1);
          if (!first && k <= prev) errors.fetch_add(1);
          if (k == 0 || k >= kRange) errors.fetch_add(1);
          if ((v >> 32) != k) errors.fetch_add(1);
          prev = k;
          first = false;
        }
        // Anchors are never removed: a scan that misses one saw an illegal
        // snapshot (e.g. a key hidden mid-split).
        std::size_t gi = 0;
        for (std::uint64_t a = ((lo + kAnchorStride - 1) / kAnchorStride) *
                               kAnchorStride;
             a <= hi && a < kRange; a += kAnchorStride) {
          while (gi < got.size() && got[gi].first < a) ++gi;
          if (gi >= got.size() || got[gi].first != a) errors.fetch_add(1);
        }
      }
    });
  }

  for (int t = 0; t < 4; ++t) threads[t].join();
  stop.store(true);
  for (std::size_t t = 4; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(errors.load(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// Scans and transforms whose windows lock more data chunks than the range's
// inline chunk list holds (it spills to the heap past 8), racing inserts
// and removes. Every window holds at least 320 anchors, so at least 40
// chunks of capacity 8. Anchors are never removed: each scan must deliver
// each anchor in its window once, in ascending order, and each anchor's
// count (the value's low half) must end equal to the number of transforms
// whose window covered it.
TYPED_TEST(RangeScanStressTest, LongRangesVisitEachKeyOnce) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kRange = 2048;
  constexpr std::uint64_t kAnchorStride = 4;
  constexpr std::uint64_t kMinWindow = 320 * kAnchorStride;
  constexpr std::uint64_t kAnchors = kRange / kAnchorStride;
  constexpr int kMutators = 2;
  constexpr int kTransformers = 2;
  static_assert(kMinWindow / kAnchorStride / 8 >= 40);

  for (std::uint64_t k = 0; k < kRange; k += kAnchorStride) {
    ASSERT_TRUE(m.insert(k, k << 32));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<std::uint64_t>> covered(
      kTransformers, std::vector<std::uint64_t>(kAnchors, 0));
  auto window = [](Xoshiro256& rng) {
    const std::uint64_t lo = rng.next_below(kRange - kMinWindow);
    return std::pair{lo, lo + kMinWindow - 1 +
                             rng.next_below(kRange - kMinWindow - lo + 1)};
  };
  // Strictly ascending keys inside [lo, hi], with every anchor of [lo, hi]
  // among them.
  auto check = [&](const std::vector<std::uint64_t>& keys, std::uint64_t lo,
                   std::uint64_t hi) {
    std::uint64_t anchors = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] < lo || keys[i] > hi) errors.fetch_add(1);
      if (i > 0 && keys[i] <= keys[i - 1]) errors.fetch_add(1);
      if (keys[i] % kAnchorStride == 0) ++anchors;
    }
    const std::uint64_t first = (lo + kAnchorStride - 1) / kAnchorStride;
    if (anchors != hi / kAnchorStride - first + 1) errors.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&, t] {
      const LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(300 + t);
      for (int i = 0; i < 6000; ++i) {
        const std::uint64_t k = rng.next_below(kRange);
        if (k % kAnchorStride == 0) continue;
        if (rng.next_below(2) == 0) {
          m.insert(k, k << 32);
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (int t = 0; t < kTransformers; ++t) {
    threads.emplace_back([&, t] {
      const LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(400 + t);
      std::vector<std::uint64_t> keys;
      for (int i = 0; i < 40; ++i) {
        const auto [lo, hi] = window(rng);
        keys.clear();
        const std::size_t n =
            m.range_transform(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
              keys.push_back(k);
              if ((v >> 32) != k) errors.fetch_add(1);
              return v + 1;
            });
        if (n != keys.size()) errors.fetch_add(1);
        check(keys, lo, hi);
        for (std::uint64_t a = (lo + kAnchorStride - 1) / kAnchorStride;
             a <= hi / kAnchorStride; ++a) {
          ++covered[t][a];
        }
      }
    });
  }
  threads.emplace_back([&] {
    const LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
    Xoshiro256 rng(500);
    std::vector<std::uint64_t> keys;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto [lo, hi] = window(rng);
      keys.clear();
      m.range_for_each(lo, hi, [&](std::uint64_t k, std::uint64_t v) {
        keys.push_back(k);
        if ((v >> 32) != k) errors.fetch_add(1);
      });
      check(keys, lo, hi);
    }
  });

  for (int t = 0; t < kMutators + kTransformers; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(errors.load(), 0u);
  for (std::uint64_t a = 0; a < kAnchors; ++a) {
    std::uint64_t expect = 0;
    for (int t = 0; t < kTransformers; ++t) expect += covered[t][a];
    const auto v = m.lookup(a * kAnchorStride);
    ASSERT_TRUE(v.has_value()) << "anchor " << a * kAnchorStride;
    EXPECT_EQ(*v & 0xffffffffu, expect) << "anchor " << a * kAnchorStride;
  }
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

}  // namespace
}  // namespace sv::core
