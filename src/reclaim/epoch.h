// Epoch-based reclamation (EBR), the deferred scheme used by several of the
// scalable skip lists the paper compares against (Fraser [16], Brown [18],
// Arbel-Raviv & Brown [30]). Provided as an alternative Reclaimer policy so
// the HP-vs-EBR trade-off the paper alludes to (precise bounds vs cheaper
// read path) can be measured directly (bench/ablation_merge_hp).
//
// Classic three-epoch scheme: a global epoch E advances only when every
// thread inside an operation has announced E; nodes retired in epoch e
// become unreachable to new operations immediately and free once the global
// epoch reaches e+2. Unlike hazard pointers, a single stalled reader blocks
// ALL reclamation -- the unbounded worst case the paper's design avoids.
//
// Besides the Reclaimer policy, the skip vector keeps one private domain for
// pruned version-chain records (docs/SNAPSHOTS.md, "Pruning"): its readers
// bracket each chain walk with begin_op()/leave(), and its pruners hand
// detached records over with defer(), which also advances the epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/hw.h"
#include "reclaim/deleter.h"
#include "stats/stats.h"

namespace sv::reclaim {

class EpochDomain {
 public:
  EpochDomain() = default;

  ~EpochDomain() {
    // Quiescent: free every bag, including those of exited threads.
    for (auto& rec : recs_) {
      for (auto& bag : rec->bags) {
        for (auto& r : bag) r.deleter(r.ptr, r.owner);
      }
    }
  }

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  struct Retired {
    void* ptr;
    OwnedDeleter deleter;  // invoked as deleter(ptr, owner)
    void* owner;
  };

  struct ThreadRec {
    // Announced epoch; kQuiescent when outside any operation.
    static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> announced{kQuiescent};
    // Retire bags indexed by epoch % 3 (owner-thread-only).
    std::vector<Retired> bags[3];
    std::uint64_t ops_since_advance = 0;
  };

  class ThreadCtx {
   public:
    ThreadCtx() = default;

    // Reclaimer-policy interface ------------------------------------------
    void protect(int, const void*) noexcept {}  // epochs need no per-pointer
    void drop(int) noexcept {}                  // protection
    void drop_all() noexcept {}

    void begin_op() noexcept {
      const std::uint64_t e =
          domain_->global_epoch_.load(std::memory_order_acquire);
      rec_->announced.store(e, std::memory_order_seq_cst);
    }

    void end_op() noexcept {
      leave();
      if (++rec_->ops_since_advance >= kAdvancePeriod) {
        rec_->ops_since_advance = 0;
        domain_->try_advance(*rec_);
      }
    }

    void retire(void* p, OwnedDeleter deleter, void* owner) {
      stats::count(stats::Counter::kRetired);
      push(p, deleter, owner);
    }

    // Legacy ownerless form (tests, simple users).
    void retire(void* p, void (*deleter)(void*)) {
      retire(p, &invoke_unowned, reinterpret_cast<void*>(deleter));
    }

    // Private-domain interface (see the header comment) -----------------

    // end_op() without its periodic advance, for threads that only read in
    // this domain and leave advancing to the threads that retire.
    void leave() noexcept {
      rec_->announced.store(ThreadRec::kQuiescent,
                            std::memory_order_release);
    }

    // Retires p without the node counters (retired / reclaimed count the
    // Reclaimer policy's nodes only), and every kAdvancePeriod retirements
    // tries to advance, so a thread that retires but never calls end_op()
    // still drains its own bags. The caller's own announcement stays as it
    // is: called between begin_op() and leave(), it keeps blocking the
    // advance that would free what that section can still reach. The fence
    // orders the caller's unlinking stores before the epoch load that tags
    // p and before every later announcement scan: a reader that loads the
    // unlinked-from pointer with seq_cst after announcing either sees the
    // unlink, or announced no later than p's tag and is seen by the scan.
    void defer(void* p, OwnedDeleter deleter, void* owner) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      push(p, deleter, owner);
      if (++rec_->ops_since_advance >= kAdvancePeriod) {
        rec_->ops_since_advance = 0;
        domain_->advance(*rec_);
      }
    }

   private:
    friend class EpochDomain;
    ThreadCtx(EpochDomain* d, ThreadRec* r) : domain_(d), rec_(r) {}

    void push(void* p, OwnedDeleter deleter, void* owner) {
      const std::uint64_t e =
          domain_->global_epoch_.load(std::memory_order_acquire);
      rec_->bags[e % 3].push_back({p, deleter, owner});
    }

    EpochDomain* domain_ = nullptr;
    ThreadRec* rec_ = nullptr;
  };

  ThreadCtx thread_ctx() {
    struct Entry {
      std::uint64_t serial;
      ThreadRec* rec;
    };
    thread_local std::vector<Entry> cache;
    for (auto& e : cache) {
      if (e.serial == serial_) return ThreadCtx(this, e.rec);
    }
    auto* rec = new ThreadRec();
    {
      std::lock_guard<std::mutex> lk(mu_);
      recs_.emplace_back(rec);
    }
    cache.push_back({serial_, rec});
    return ThreadCtx(this, rec);
  }

  std::uint64_t global_epoch() const noexcept {
    return global_epoch_.load(std::memory_order_relaxed);
  }
  std::uint64_t reclaimed_count() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // Try to advance the epoch and free this thread's expired bag, counting
  // both (epoch_advances, reclaimed). Called periodically from end_op; also
  // usable directly in tests.
  void try_advance(ThreadRec& rec) {
    const Advance a = advance(rec);
    if (a.advanced) stats::count(stats::Counter::kEpochAdvances);
    if (a.freed > 0) stats::count(stats::Counter::kReclaimed, a.freed);
  }

 private:
  static constexpr std::uint64_t kAdvancePeriod = 128;

  struct Advance {
    bool advanced;
    std::uint64_t freed;
  };

  // try_advance without the counters.
  Advance advance(ThreadRec& rec) {
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& r : recs_) {
        const std::uint64_t a = r->announced.load(std::memory_order_seq_cst);
        if (a != ThreadRec::kQuiescent && a < e) {
          return {false, 0};  // straggler
        }
      }
    }
    // All active threads are in epoch e: advancing to e+1 is safe, and
    // afterwards the bag holding epoch (g-2) retirees -- index (g+1) % 3 for
    // the current global g -- has no remaining readers.
    std::uint64_t expected = e;
    const bool advanced = global_epoch_.compare_exchange_strong(
        expected, e + 1, std::memory_order_acq_rel);
    auto& bag = rec.bags[(global_epoch_.load(std::memory_order_acquire) + 1) %
                         3];
    const std::uint64_t freed = bag.size();
    for (auto& r : bag) r.deleter(r.ptr, r.owner);
    bag.clear();
    reclaimed_.fetch_add(freed, std::memory_order_relaxed);
    return {advanced, freed};
  }

  static std::uint64_t next_serial() {
    static std::atomic<std::uint64_t> c{1};
    return c.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> global_epoch_{2};  // start > 0 so e-2 exists
  std::atomic<std::uint64_t> reclaimed_{0};
  const std::uint64_t serial_ = next_serial();
  std::mutex mu_;  // guards recs_ (attach + advance scan; not per-op)
  std::vector<std::unique_ptr<ThreadRec>> recs_;
};

// Reclaimer policy wrapper (see reclaimer.h for the concept).
class EpochReclaimer {
 public:
  using ThreadCtx = EpochDomain::ThreadCtx;
  ThreadCtx thread_ctx() { return domain_.thread_ctx(); }
  EpochDomain& domain() { return domain_; }

 private:
  EpochDomain domain_;
};

}  // namespace sv::reclaim
