// Hazard pointers (Michael, TPDS 2004), the paper's precise memory
// reclamation scheme (§III-B).
//
// One HazardDomain per data structure instance. Threads attach lazily on
// first use and keep a cached ThreadRec per domain in thread-local storage;
// on thread exit the record is returned to the domain for reuse and its
// pending retirements are handed off, so short-lived threads (common in
// tests) neither leak slots nor leak memory.
//
// Bounds: with P attached threads, each holding 4 traversal slots and 32
// pin slots, at most P*(4+32) retired nodes per thread can be blocked from
// reclamation, and a scan runs every scan_threshold() retirements -- the
// "tight bounds on wasted space" the paper relies on. The threshold counts
// only the traversal slots, on purpose: pins are few in practice (a pinned
// chunk blocks reclamation only if it was retired while a transaction held
// it), and a threshold sized for P*36 would keep more retired chunks alive
// per thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hw.h"
#include "debug/fault_inject.h"
#include "reclaim/deleter.h"
#include "stats/stats.h"

namespace sv::reclaim {

class HazardDomain {
 public:
  // Maximum hazard pointers a single operation may hold at once. The skip
  // vector's hand-over-hand traversal needs at most 3 live slots (curr,
  // next, and a transiently protected down-node).
  static constexpr int kSlotsPerThread = 4;
  // Pin slots per thread: protection that outlives one operation. One
  // holder per thread at a time (a transaction keeps the data chunks its
  // reads found, txn/txn.h); its size is the most accesses a generated
  // transaction makes (dbx::TxnRequest::kMaxAccesses).
  static constexpr int kPinSlots = 32;

  HazardDomain();
  ~HazardDomain();

  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  struct ThreadRec {
    std::atomic<const void*> slots[kSlotsPerThread];
    std::atomic<const void*> pins[kPinSlots];
    std::atomic<bool> in_use{false};
    ThreadRec* next = nullptr;  // intrusive list, append-only
    // Owner-thread-only state:
    bool pins_claimed = false;
    struct Retired {
      void* ptr;
      OwnedDeleter deleter;  // invoked as deleter(ptr, owner)
      void* owner;
    };
    std::vector<Retired> retired;
    alignas(kCacheLineSize) char pad_[kCacheLineSize];
  };

  // Per-(thread, domain) facade. Obtained via thread_ctx(); cheap to copy.
  class ThreadCtx {
   public:
    static constexpr int kPinSlots = HazardDomain::kPinSlots;

    ThreadCtx() = default;

    // Operation scoping hooks (used by epoch-based policies; free here).
    void begin_op() noexcept {}
    void end_op() noexcept {}

    // Publish p in slot i. Includes the store->load fence required before
    // the caller re-validates the pointer's source (the skip vector does
    // that re-validation through the node's sequence lock).
    void protect(int i, const void* p) noexcept {
      rec_->slots[i].store(p, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    void drop(int i) noexcept {
      rec_->slots[i].store(nullptr, std::memory_order_release);
    }

    // Clears the traversal slots only; pins stay until release_pins().
    void drop_all() noexcept {
      for (auto& s : rec_->slots) s.store(nullptr, std::memory_order_release);
    }

    // ---- Pin slots ----------------------------------------------------------

    // Claims this thread's pin slots for one holder; false while another
    // holder has them.
    [[nodiscard]] bool claim_pins() noexcept {
      if (rec_->pins_claimed) return false;
      rec_->pins_claimed = true;
      return true;
    }

    // Keeps p protected after its traversal slot drops: p must be protected
    // (and validated) in a traversal slot now, and this copy must precede
    // that slot's drop. No seq_cst fence or re-validation is needed: scan()
    // reads a record's traversal slots before its pins, and a scan that no
    // longer finds p in its traversal slot read a store made after the
    // release fence below (the drop, or a later protect), so it
    // synchronizes with the fence and finds p in pin slot i.
    void pin(int i, const void* p) noexcept {
      rec_->pins[i].store(p, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
    }

    // Clears pin slots [0, n) and gives up the claim.
    void release_pins(int n) noexcept {
      for (int i = 0; i < n; ++i) {
        rec_->pins[i].store(nullptr, std::memory_order_release);
      }
      rec_->pins_claimed = false;
    }

    // The paper's "HP.mark": defer deletion of p until no slot protects it.
    // `owner` is the retiring component (routes destruction back through
    // its allocator); it must outlive the domain.
    void retire(void* p, OwnedDeleter deleter, void* owner) {
      SV_FAULT_POINT(debug::Point::kRetire);  // p unlinked, not yet scanned
      stats::count(stats::Counter::kRetired);
      rec_->retired.push_back({p, deleter, owner});
      if (rec_->retired.size() >= domain_->scan_threshold()) {
        domain_->scan(*rec_);
      }
    }

    // Legacy ownerless form (tests, simple users).
    void retire(void* p, void (*deleter)(void*)) {
      retire(p, &invoke_unowned, reinterpret_cast<void*>(deleter));
    }

    std::size_t pending_retired() const noexcept {
      return rec_->retired.size();
    }

   private:
    friend class HazardDomain;
    ThreadCtx(HazardDomain* d, ThreadRec* r) : domain_(d), rec_(r) {}
    HazardDomain* domain_ = nullptr;
    ThreadRec* rec_ = nullptr;
  };

  // Get (attaching if needed) this thread's context for this domain.
  ThreadCtx thread_ctx();

  // Diagnostics.
  std::size_t attached_threads() const noexcept {
    return rec_count_.load(std::memory_order_relaxed);
  }
  std::size_t retired_count() const noexcept {
    return retired_estimate_.load(std::memory_order_relaxed);
  }
  std::uint64_t reclaimed_count() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  // Force a full scan from this thread (reclaims whatever is unprotected).
  void flush();

 private:
  friend class ThreadCtx;

  std::size_t scan_threshold() const noexcept {
    // 2x the traversal slots of all threads (pins excluded, see Bounds),
    // with a floor so that tiny thread counts still batch their frees.
    const std::size_t h =
        rec_count_.load(std::memory_order_relaxed) * kSlotsPerThread;
    return h * 2 > 64 ? h * 2 : 64;
  }

  ThreadRec* acquire_rec();
  void release_rec(ThreadRec* rec);  // called from thread-exit hook
  void scan(ThreadRec& rec);

  std::atomic<ThreadRec*> head_{nullptr};
  std::atomic<std::size_t> rec_count_{0};
  std::atomic<std::size_t> retired_estimate_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  // Retirements orphaned by exited threads; drained by the next scan.
  // Guarded by orphan_mu_ (a tiny spinlock; not on the hot path).
  std::atomic_flag orphan_mu_ = ATOMIC_FLAG_INIT;
  std::vector<ThreadRec::Retired> orphans_;
  const std::uint64_t serial_;

  static std::uint64_t next_serial();
  struct TlsCache;
  static TlsCache& tls();
};

}  // namespace sv::reclaim
