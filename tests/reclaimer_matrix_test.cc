// Integration stress executed identically across every reclamation policy
// (hazard pointers, epochs, leak): the full operation surface -- point
// ops, navigation, range queries -- under concurrent churn, followed by
// complete structural validation. Typed tests guarantee no policy
// silently misses coverage. (ImmediateReclaimer is sequential-only; its
// parity coverage lives in tests/alloc_test.cc.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/wgl.h"
#include "common/rng.h"
#include "core/adapters.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "lsan_guard.h"

namespace sv::core {
namespace {

using sv::test::LeakCheckDisabler;

using Policies = testing::Types<reclaim::HazardReclaimer,
                                reclaim::EpochReclaimer,
                                reclaim::LeakReclaimer>;

template <class R>
class ReclaimerMatrixTest : public testing::Test {
 protected:
  using Map = SkipVectorMap<std::uint64_t, std::uint64_t, R>;

  // LeakReclaimer leaks retired nodes by design; exempt only that policy
  // from LeakSanitizer.
  static constexpr bool kLeaksByDesign =
      std::is_same_v<R, reclaim::LeakReclaimer>;

  // Covers the test body's thread; workers construct their own.
  const LeakCheckDisabler body_guard_{kLeaksByDesign};

  static Config Cfg() {
    Config c;
    c.layer_count = 5;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    return c;
  }
};

TYPED_TEST_SUITE(ReclaimerMatrixTest, Policies);

TYPED_TEST(ReclaimerMatrixTest, FullSurfaceConcurrentStress) {
  typename TestFixture::Map m(TestFixture::Cfg());
  constexpr std::uint64_t kRange = 512;
  std::atomic<std::uint64_t> errors{0};
  std::atomic<bool> stop{false};

  // Permanently resident anchor keys bound navigation results.
  ASSERT_TRUE(m.insert(0, 0));
  ASSERT_TRUE(m.insert(kRange, kRange << 32));

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
      Xoshiro256 rng(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = 1 + rng.next_below(kRange - 1);
        switch (rng.next_below(8)) {
          case 0:
          case 1:
            m.insert(k, (k << 32) | 1);
            break;
          case 2:
            m.remove(k);
            break;
          case 3:
            m.update(k, (k << 32) | 2);
            break;
          case 4: {
            auto f = m.floor(k);
            if (!f || f->first > k) errors.fetch_add(1);
            break;
          }
          case 5: {
            auto c = m.ceiling(k);
            if (!c || c->first < k || c->first > kRange) errors.fetch_add(1);
            break;
          }
          case 6: {
            std::uint64_t prev = 0;
            bool first_cb = true;
            m.range_for_each(k, k + 64, [&](std::uint64_t kk,
                                            std::uint64_t vv) {
              if (kk < k || kk > k + 64) errors.fetch_add(1);
              if ((vv >> 32) != kk) errors.fetch_add(1);
              if (!first_cb && kk <= prev) errors.fetch_add(1);
              prev = kk;
              first_cb = false;
            });
            break;
          }
          default: {
            auto v = m.lookup(k);
            if (v && (*v >> 32) != k) errors.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
    while (!stop.load(std::memory_order_relaxed)) {
      auto f = m.first();
      auto l = m.last();
      if (!f || f->first != 0) errors.fetch_add(1);
      if (!l || l->first != kRange) errors.fetch_add(1);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_LE(k, kRange);
    if (k != 0) {
      EXPECT_EQ(v >> 32, k);
    }
  });
}

TYPED_TEST(ReclaimerMatrixTest, RepeatedFillDrainCycles) {
  typename TestFixture::Map m(TestFixture::Cfg());
  for (int cycle = 0; cycle < 6; ++cycle) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
        Xoshiro256 rng(cycle * 10 + t);
        for (std::uint64_t i = 0; i < 3000; ++i) {
          m.insert(rng.next_below(1024), i);
        }
      });
    }
    for (auto& th : threads) th.join();
    threads.clear();
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
        Xoshiro256 rng(cycle * 17 + t);
        for (std::uint64_t i = 0; i < 4000; ++i) {
          m.remove(rng.next_below(1024));
        }
      });
    }
    for (auto& th : threads) th.join();
    std::string err;
    ASSERT_TRUE(m.validate(&err)) << err << " cycle " << cycle;
  }
}

// Every reclamation policy must also produce linearizable recorded
// histories: the same RecordingMap + WGL pipeline the lincheck harness uses
// (tools/opfuzz --lincheck, docs/LINEARIZABILITY.md), run as a short
// windowed workload per policy.
TYPED_TEST(ReclaimerMatrixTest, RecordedHistoryIsLinearizable) {
  constexpr std::uint64_t kKeys = 64;
  constexpr int kThreads = 4;
  constexpr int kWindows = 2;
  check::HistoryRecorder rec;
  RecordingMap<typename TestFixture::Map> map(&rec, TestFixture::Cfg());

  for (int w = 0; w < kWindows; ++w) {
    // Ground the window: sequential lookups pin each key's initial state.
    for (std::uint64_t k = 1; k <= kKeys; ++k) map.lookup(k);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, w] {
        LeakCheckDisabler guard(TestFixture::kLeaksByDesign);
        Xoshiro256 rng(31 * w + t);
        for (int i = 0; i < 2000; ++i) {
          const std::uint64_t k = 1 + rng.next_below(kKeys);
          const std::uint64_t v = (static_cast<std::uint64_t>(t) << 48) |
                                  static_cast<std::uint64_t>(i);
          switch (rng.next_below(8)) {
            case 0:
            case 1:
            case 2:
              map.insert(k, v);
              break;
            case 3:
            case 4:
              map.remove(k);
              break;
            case 5:
              map.update(k, v);
              break;
            case 6:
              map.range_for_each(k, k + 8,
                                 [](std::uint64_t, std::uint64_t) {});
              break;
            default:
              map.lookup(k);
              break;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const check::History h = rec.merge();
    const check::CheckResult res = check::check_history(h);
    std::stringstream dump;
    if (!res.ok()) h.dump(dump);
    ASSERT_TRUE(res.ok()) << "window " << w << ": " << res.explanation << "\n"
                          << dump.str();
    rec.clear();
  }
}

}  // namespace
}  // namespace sv::core
