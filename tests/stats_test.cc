// Tests for sv::stats: the counter registry/scope machinery itself, the
// zero-size disabled stubs, and the end-to-end counter flow through the
// skip vector, the sharded wrapper, and the FSL baseline.
#include "stats/stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/fraser_skiplist.h"
#include "core/sharded.h"
#include "core/skip_vector.h"

namespace {

using sv::stats::Counter;
using sv::stats::Snapshot;

// The disabled implementation must impose no size or state: instrumented
// classes embed a Registry unconditionally, and SV_STATS=OFF is only free
// if that member is an empty base-class-sized stub.
static_assert(std::is_empty_v<sv::stats::disabled::Registry>);
static_assert(std::is_empty_v<sv::stats::disabled::Scope> ||
              sizeof(sv::stats::disabled::Scope) == 1);
static_assert(sizeof(sv::stats::disabled::Registry) == 1);

// Counter catalog and name table must stay index-aligned.
static_assert(sv::stats::kCounterNames.size() == sv::stats::kCounterCount);
static_assert(sv::stats::counter_name(Counter::kLookupHit) == "lookup_hit");
static_assert(sv::stats::counter_name(Counter::kEpochAdvances) ==
              "epoch_advances");

TEST(StatsSnapshot, Arithmetic) {
  Snapshot a, b;
  a.values[0] = 10;
  a.values[1] = 5;
  b.values[0] = 3;
  b.values[1] = 7;  // larger than a's: subtraction clamps at zero
  Snapshot d = a - b;
  EXPECT_EQ(d.values[0], 7u);
  EXPECT_EQ(d.values[1], 0u);
  a += b;
  EXPECT_EQ(a.values[0], 13u);
  EXPECT_EQ(a.values[1], 12u);
  EXPECT_EQ(d.total(), 7u);

  std::size_t seen = 0;
  d.for_each([&](std::string_view name, std::uint64_t) {
    EXPECT_FALSE(name.empty());
    ++seen;
  });
  EXPECT_EQ(seen, sv::stats::kCounterCount);
}

TEST(Stats, CountWithoutScopeIsSafeNoop) {
  // No Scope active: count() must not crash and must not be attributed
  // anywhere.
  sv::stats::count(Counter::kLookupHit, 3);
  sv::stats::enabled::Registry r;
  EXPECT_EQ(r.snapshot().total(), 0u);
}

TEST(Stats, ScopeAttributesAndNests) {
  sv::stats::enabled::Registry outer, inner;
  {
    sv::stats::enabled::Scope so(outer);
    sv::stats::enabled::count(Counter::kLookupHit);
    {
      sv::stats::enabled::Scope si(inner);
      sv::stats::enabled::count(Counter::kLookupMiss, 2);
    }
    // Inner scope destroyed: attribution reverts to the outer registry.
    sv::stats::enabled::count(Counter::kInsertNew);
  }
  EXPECT_EQ(outer.snapshot()[Counter::kLookupHit], 1u);
  EXPECT_EQ(outer.snapshot()[Counter::kInsertNew], 1u);
  EXPECT_EQ(outer.snapshot()[Counter::kLookupMiss], 0u);
  EXPECT_EQ(inner.snapshot()[Counter::kLookupMiss], 2u);
  EXPECT_EQ(inner.snapshot().total(), 2u);
}

TEST(Stats, AggregatesAcrossExitedAndDetachedThreads) {
  sv::stats::enabled::Registry r;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;

  // Half the threads are joined, half detached; all must remain visible in
  // the final snapshot because blocks are retained until the registry dies.
  std::atomic<int> done{0};
  for (int t = 0; t < kThreads; ++t) {
    std::thread w([&] {
      sv::stats::enabled::Scope scope(r);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        sv::stats::enabled::count(Counter::kInsertNew);
      }
      done.fetch_add(1, std::memory_order_release);
    });
    if (t % 2 == 0) {
      w.join();
    } else {
      w.detach();
    }
  }
  // Wait for the detached threads' release-stores, bounded so a wedged
  // runner fails this test instead of tripping the ctest suite timeout.
  // Invariant under test: a block's counts are published by the Scope
  // destructor sequenced before the `done` release-store, and blocks are
  // retained by the registry until IT dies -- so once the acquire-load
  // below observes kThreads, every increment is visible to snapshot().
  // The detached threads themselves may still be running (between the
  // store and thread exit); that is fine, they no longer touch `r`.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (done.load(std::memory_order_acquire) < kThreads) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "detached stats threads did not finish within 60s; "
        << done.load(std::memory_order_acquire) << "/" << kThreads
        << " completed";
    std::this_thread::yield();
  }
  EXPECT_EQ(r.snapshot()[Counter::kInsertNew], kThreads * kPerThread);
  EXPECT_GE(r.attached_blocks(), static_cast<std::size_t>(kThreads));
}

TEST(Stats, SnapshotDuringConcurrentIncrementIsMonotonic) {
  sv::stats::enabled::Registry r;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 200000;
  std::atomic<bool> start{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      sv::stats::enabled::Scope scope(r);
      while (!start.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        sv::stats::enabled::count(Counter::kLookupHit);
      }
    });
  }
  start.store(true, std::memory_order_release);
  // Concurrent snapshots: each must observe a monotonically non-decreasing
  // total (counters are monotonic; TSan checks the data-race freedom).
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = r.snapshot()[Counter::kLookupHit];
    EXPECT_GE(now, prev);
    EXPECT_LE(now, kWriters * kPerThread);
    prev = now;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(r.snapshot()[Counter::kLookupHit], kWriters * kPerThread);
}

TEST(Stats, SkipVectorCounterFlow) {
  if (!sv::stats::kEnabled) GTEST_SKIP() << "built with SV_STATS=OFF";
  sv::core::SkipVector<std::uint64_t, std::uint64_t> m(
      sv::core::Config::for_elements(1024));
  for (std::uint64_t k = 0; k < 512; ++k) m.insert(k * 2, k);
  EXPECT_TRUE(m.lookup(0).has_value());
  EXPECT_FALSE(m.lookup(1).has_value());
  EXPECT_TRUE(m.insert(1, 1));
  EXPECT_FALSE(m.insert(1, 1));
  EXPECT_TRUE(m.update(1, 2));
  EXPECT_FALSE(m.update(99999, 2));
  EXPECT_TRUE(m.remove(1));
  EXPECT_FALSE(m.remove(1));
  (void)m.floor(100);
  std::size_t visited = m.range_for_each(
      0, 100, [](std::uint64_t, std::uint64_t) {});

  const Snapshot s = m.stats_registry().snapshot();
  EXPECT_EQ(s[Counter::kLookupHit], 1u);
  EXPECT_EQ(s[Counter::kLookupMiss], 1u);
  EXPECT_EQ(s[Counter::kInsertNew], 513u);  // 512 prefill + 1
  EXPECT_EQ(s[Counter::kInsertDup], 1u);
  EXPECT_EQ(s[Counter::kUpdateHit], 1u);
  EXPECT_EQ(s[Counter::kUpdateMiss], 1u);
  EXPECT_EQ(s[Counter::kRemoveHit], 1u);
  EXPECT_EQ(s[Counter::kRemoveMiss], 1u);
  EXPECT_EQ(s[Counter::kOrderedNavOps], 1u);
  EXPECT_EQ(s[Counter::kRangeOps], 1u);
  EXPECT_EQ(s[Counter::kRangeKeysVisited], visited);
  // 512 sequential inserts into chunks of the default target size must have
  // split at least once.
  EXPECT_GT(s[Counter::kCapacitySplits] + s[Counter::kTowerSplits], 0u);

  // Writes that change nothing are answered by a read: a height-0
  // duplicate insert freezes (and so thaws) nothing, and with a snapshot
  // pinned a remove or update miss keeps no pre-image.
  const Snapshot before_dup = m.stats_registry().snapshot();
  EXPECT_FALSE(m.insert_with_height(0, 7, 0));
  const Snapshot dup = m.stats_registry().snapshot() - before_dup;
  EXPECT_EQ(dup[Counter::kInsertDup], 1u);
  EXPECT_EQ(dup[Counter::kFreezes], 0u);
  EXPECT_EQ(dup[Counter::kThaws], 0u);
  const auto view = m.snapshot_at();
  ASSERT_TRUE(view.versioned());
  const Snapshot before_miss = m.stats_registry().snapshot();
  EXPECT_FALSE(m.remove(3));
  EXPECT_FALSE(m.update(3, 1));
  const Snapshot miss = m.stats_registry().snapshot() - before_miss;
  EXPECT_EQ(miss[Counter::kRemoveMiss] + miss[Counter::kUpdateMiss], 2u);
  EXPECT_EQ(miss[Counter::kVersionRecords], 0u);
}

// No stats guard: commit_version() is kept under SV_STATS=OFF too. A write
// that changes nothing reserves no commit version.
TEST(Stats, NoOpWritesReserveNoCommitVersion) {
  sv::core::SkipVector<std::uint64_t, std::uint64_t> m(
      sv::core::Config::for_elements(1024));
  for (std::uint64_t k = 0; k < 512; ++k) m.insert(k * 2, k);
  const std::uint64_t quiet = m.commit_version();
  EXPECT_FALSE(m.remove(3));
  EXPECT_FALSE(m.update(3, 1));
  EXPECT_FALSE(m.insert(0, 1));
  EXPECT_EQ(m.commit_version(), quiet);
  EXPECT_TRUE(m.update(0, 1));
  EXPECT_EQ(m.commit_version(), quiet + 1);
}

TEST(Stats, ShardedSnapshotAggregatesShards) {
  if (!sv::stats::kEnabled) GTEST_SKIP() << "built with SV_STATS=OFF";
  sv::core::ShardedSkipVector<std::uint64_t, std::uint64_t> m(
      1 << 16, 4, sv::core::Config::for_elements(1 << 10));
  for (std::uint64_t k = 0; k < (1 << 12); ++k) m.insert(k * 16 + 7, k);
  const Snapshot s = m.stats_snapshot();
  // Inserts land in different shards; the aggregate must see all of them.
  EXPECT_EQ(s[Counter::kInsertNew], 1u << 12);
}

TEST(Stats, FraserBaselineCounterFlow) {
  if (!sv::stats::kEnabled) GTEST_SKIP() << "built with SV_STATS=OFF";
  sv::baselines::FraserSkipList<std::uint64_t, std::uint64_t> m;
  EXPECT_TRUE(m.insert(1, 1));
  EXPECT_FALSE(m.insert(1, 1));
  EXPECT_TRUE(m.lookup(1).has_value());
  EXPECT_FALSE(m.lookup(2).has_value());
  EXPECT_TRUE(m.remove(1));
  EXPECT_FALSE(m.remove(1));
  const Snapshot s = m.stats_registry().snapshot();
  EXPECT_EQ(s[Counter::kInsertNew], 1u);
  EXPECT_EQ(s[Counter::kInsertDup], 1u);
  EXPECT_EQ(s[Counter::kLookupHit], 1u);
  EXPECT_EQ(s[Counter::kLookupMiss], 1u);
  EXPECT_EQ(s[Counter::kRemoveHit], 1u);
  EXPECT_EQ(s[Counter::kRemoveMiss], 1u);
}

TEST(Stats, PerPhaseDeltaViaSubtraction) {
  if (!sv::stats::kEnabled) GTEST_SKIP() << "built with SV_STATS=OFF";
  sv::core::SkipVector<std::uint64_t, std::uint64_t> m(
      sv::core::Config::for_elements(256));
  for (std::uint64_t k = 0; k < 100; ++k) m.insert(k, k);
  const Snapshot prefill = m.stats_registry().snapshot();
  for (std::uint64_t k = 0; k < 50; ++k) (void)m.lookup(k);
  const Snapshot delta = m.stats_registry().snapshot() - prefill;
  EXPECT_EQ(delta[Counter::kLookupHit], 50u);
  EXPECT_EQ(delta[Counter::kInsertNew], 0u);
}

}  // namespace
