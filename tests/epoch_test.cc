// Tests for epoch-based reclamation and the SV-EBR map variant.
#include "reclaim/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector_epoch.h"

namespace sv::reclaim {
namespace {

struct Tracked {
  static std::atomic<std::int64_t> live;
  std::uint64_t canary = 0xFEED;
  Tracked() { live.fetch_add(1); }
  ~Tracked() {
    canary = 0xDEAD;
    live.fetch_sub(1);
  }
  static void deleter(void* p) { delete static_cast<Tracked*>(p); }
};
std::atomic<std::int64_t> Tracked::live{0};

TEST(EpochDomain, RetiredNodesFreeAfterEpochAdvance) {
  const auto before = Tracked::live.load();
  {
    EpochDomain d;
    auto ctx = d.thread_ctx();
    for (int i = 0; i < 1000; ++i) {
      ctx.begin_op();
      ctx.retire(new Tracked(), &Tracked::deleter);
      ctx.end_op();
    }
    // end_op periodically advances; after enough ops something was freed.
    EXPECT_GT(d.reclaimed_count(), 0u);
    EXPECT_GT(d.global_epoch(), 2u);
  }
  // Domain destruction frees the rest.
  EXPECT_EQ(Tracked::live.load(), before);
}

TEST(EpochDomain, ActiveReaderBlocksReclamation) {
  EpochDomain d;
  auto reader = d.thread_ctx();
  reader.begin_op();  // pins the current epoch

  std::atomic<std::int64_t> freed_before_release{-1};
  std::thread writer([&] {
    auto ctx = d.thread_ctx();
    const auto base = Tracked::live.load();
    auto* obj = new Tracked();
    ctx.begin_op();
    ctx.retire(obj, &Tracked::deleter);
    ctx.end_op();
    // Hammer advances: the pinned reader must prevent the epoch from
    // moving two steps, so obj must stay live.
    for (int i = 0; i < 2000; ++i) {
      ctx.begin_op();
      ctx.end_op();
    }
    freed_before_release.store(Tracked::live.load() - base);
  });
  writer.join();
  EXPECT_EQ(freed_before_release.load(), 1)
      << "object freed while a reader was pinned in an old epoch";
  reader.end_op();
}

TEST(EpochDomain, ConcurrentChurnNoUseAfterFree) {
  EpochDomain d;
  constexpr int kSlots = 32;
  struct Slot {
    std::atomic<Tracked*> ptr{nullptr};
  };
  std::vector<Slot> slots(kSlots);
  for (auto& s : slots) s.ptr.store(new Tracked());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      auto ctx = d.thread_ctx();
      Xoshiro256 rng(r + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        ctx.begin_op();
        Tracked* p = slots[rng.next_below(kSlots)].ptr.load(
            std::memory_order_acquire);
        // Inside an epoch section, a published pointer cannot be freed.
        if (p->canary != 0xFEED) bad.fetch_add(1);
        ctx.end_op();
      }
    });
  }
  {
    auto ctx = d.thread_ctx();
    Xoshiro256 rng(99);
    for (int i = 0; i < 30000; ++i) {
      ctx.begin_op();
      const auto s = rng.next_below(kSlots);
      Tracked* fresh = new Tracked();
      Tracked* old = slots[s].ptr.exchange(fresh, std::memory_order_acq_rel);
      ctx.retire(old, &Tracked::deleter);
      ctx.end_op();
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  for (auto& s : slots) delete s.ptr.load();  // still published, never retired
}

TEST(SkipVectorEpoch, StressMatchesTagInvariant) {
  sv::core::SkipVectorEpoch<std::uint64_t, std::uint64_t> m([] {
    sv::core::Config c;
    c.layer_count = 5;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    return c;
  }());
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 17);
      for (int i = 0; i < 50000; ++i) {
        const std::uint64_t k = rng.next_below(256);
        switch (rng.next_below(4)) {
          case 0:
            m.insert(k, (k << 32) | 1);
            break;
          case 1:
            m.remove(k);
            break;
          default: {
            auto v = m.lookup(k);
            if (v && (*v >> 32) != k) bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
  EXPECT_GT(m.reclaimer().domain().reclaimed_count(), 0u)
      << "epoch reclamation should have freed merged-away chunks";
}

}  // namespace
}  // namespace sv::reclaim
