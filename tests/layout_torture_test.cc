// Static-layout torture: tiny chunks split and merge constantly under each
// static data layout (the differential and scan tests run unsorted data
// chunks, the striped test sorted ones) while a differential oracle checks
// every result. Fault-injection schedules yield/delay inside the
// structural transitions -- split, merge, tower split, batch commit,
// version fold -- widening the windows where a half-built chunk could be
// visible to concurrent readers. Typed across the deferred reclamation
// policies (HP, EBR) so every structural path is exercised over every
// reclamation discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "debug/fault_inject.h"

namespace sv::core {
namespace {

using debug::FaultInjector;
using debug::Schedule;
using vectormap::Layout;

using Policies =
    testing::Types<reclaim::HazardReclaimer, reclaim::EpochReclaimer>;

// Tiny chunks (capacity 8): every few writes split or merge one.
Config Small(Layout data_layout) {
  Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  c.data_layout = data_layout;
  return c;
}

template <class R>
class LayoutTortureTest : public testing::Test {
 protected:
  using Map = SkipVectorMap<std::uint64_t, std::uint64_t, R>;

  void TearDown() override { FaultInjector::instance().clear(); }
};

TYPED_TEST_SUITE(LayoutTortureTest, Policies);

// Sequential differential: a read-heavy phase followed by a write-heavy
// phase, with a schedule yielding/delaying inside split, merge,
// tower-split, batch-commit, and version-fold. Every op is checked against
// a std::map oracle, so a structural transition that drops, duplicates, or
// reorders a mapping is caught at the next touch of its key.
TYPED_TEST(LayoutTortureTest, DifferentialAcrossSplitsAndMerges) {
  FaultInjector::instance().install(Schedule::parse(
      "seed=91;pyield@split=0.5;pdelay@split=0.25;pyield@merge=0.5;"
      "pdelay@merge=0.25;pyield@tower-split=0.5;pyield@batch-commit=0.5;"
      "pyield@version-fold=0.5;pfail@freeze=0.05"));
  typename TestFixture::Map m(Small(Layout::kUnsorted));
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(4242);
  constexpr std::uint64_t kKeys = 512;

  auto run_phase = [&](unsigned pct_lookup, int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t k = rng.next_below(kKeys);
      if (rng.next_below(100) < pct_lookup) {
        auto it = oracle.find(k);
        auto got = m.lookup(k);
        ASSERT_EQ(got.has_value(), it != oracle.end()) << "lookup " << k;
        if (got) {
          ASSERT_EQ(*got, it->second) << "lookup value " << k;
        }
      } else if (rng.next_below(2) == 0) {
        const std::uint64_t v = rng.next();
        ASSERT_EQ(m.insert(k, v), oracle.emplace(k, v).second)
            << "insert " << k << " @op " << i;
      } else {
        ASSERT_EQ(m.remove(k), oracle.erase(k) > 0)
            << "remove " << k << " @op " << i;
      }
      if (i % 4096 == 4095) {
        std::string err;
        ASSERT_TRUE(m.validate(&err)) << err << " @op " << i;
      }
    }
  };

  run_phase(/*pct_lookup=*/90, 30000);  // read-dominated
  run_phase(/*pct_lookup=*/5, 30000);   // write-dominated

  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  ASSERT_EQ(m.size_approx(), oracle.size());
  auto it = oracle.begin();
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_TRUE(it != oracle.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  });
  EXPECT_TRUE(it == oracle.end());
}

// Concurrent torture: threads own disjoint key stripes (key % threads == t)
// so each keeps an exact local oracle while all of them share chunks --
// splits and merges happen under genuine concurrency with the schedule
// widening the transition windows. Afterwards the union of the local
// oracles must equal the map exactly.
TYPED_TEST(LayoutTortureTest, ConcurrentStripedDifferential) {
  FaultInjector::instance().install(Schedule::parse(
      "seed=17;pyield@split=0.25;pdelay@split=0.1;pyield@merge=0.25;"
      "pdelay@merge=0.1;pyield@tower-split=0.25;pyield@version-fold=0.25"));
  typename TestFixture::Map m(Small(Layout::kSorted));
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kKeys = 4096;
  constexpr int kOps = 40000;

  std::vector<std::map<std::uint64_t, std::uint64_t>> oracles(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto& oracle = oracles[t];
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOps && !failed.load(std::memory_order_relaxed);
           ++i) {
        // Stay on this thread's stripe so the local oracle is exact.
        const std::uint64_t k = rng.next_below(kKeys / kThreads) * kThreads + t;
        switch (rng.next_below(4)) {
          case 0: {
            const std::uint64_t v = rng.next();
            if (m.insert(k, v) != oracle.emplace(k, v).second) {
              failed.store(true, std::memory_order_relaxed);
            }
            break;
          }
          case 1:
            if (m.remove(k) != (oracle.erase(k) > 0)) {
              failed.store(true, std::memory_order_relaxed);
            }
            break;
          default: {
            auto it = oracle.find(k);
            auto got = m.lookup(k);
            if (got.has_value() != (it != oracle.end()) ||
                (got && *got != it->second)) {
              failed.store(true, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_FALSE(failed.load()) << "an op disagreed with its stripe oracle";

  std::string err;
  ASSERT_TRUE(m.validate(&err)) << err;
  std::map<std::uint64_t, std::uint64_t> expect;
  for (const auto& o : oracles) expect.insert(o.begin(), o.end());
  ASSERT_EQ(m.size_approx(), expect.size());
  auto it = expect.begin();
  std::uint64_t mismatches = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    if (it == expect.end() || it->first != k || it->second != v) {
      ++mismatches;
    } else {
      ++it;
    }
  });
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(it == expect.end());
}

// Range scans across mid-flight splits and merges of unsorted data chunks:
// point writers churn the chunks while every scan must still observe keys
// in strictly increasing order (each visit sorts a chunk's in-range pairs).
TYPED_TEST(LayoutTortureTest, ScansStayOrderedUnderChurn) {
  FaultInjector::instance().install(
      Schedule::parse("seed=3;pyield@split=0.3;pyield@merge=0.3"));
  typename TestFixture::Map m(Small(Layout::kUnsorted));
  constexpr std::uint64_t kKeys = 2048;
  for (std::uint64_t k = 0; k < kKeys; k += 2) ASSERT_TRUE(m.insert(k, k));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> disorder{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {  // writers: churn point ops
      Xoshiro256 rng(7 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kKeys);
        if (rng.next_below(2) == 0) {
          m.insert(k, k);
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (unsigned t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {  // scanners: ordered windows
      Xoshiro256 rng(77 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = rng.next_below(kKeys);
        std::uint64_t prev = 0;
        bool first = true;
        m.range_for_each(lo, lo + 256, [&](std::uint64_t k, std::uint64_t) {
          if (!first && k <= prev) {
            disorder.fetch_add(1, std::memory_order_relaxed);
          }
          prev = k;
          first = false;
        });
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(disorder.load(), 0u) << "a scan saw keys out of order";
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

}  // namespace
}  // namespace sv::core
