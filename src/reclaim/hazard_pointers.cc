#include "reclaim/hazard_pointers.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace sv::reclaim {
namespace {

// Global registry mapping domain serial -> domain, so thread-exit hooks can
// tell whether a cached domain still exists. Touched only on domain
// construction/destruction and thread attach/exit -- never on the hot path.
struct Registry {
  std::mutex mu;
  std::unordered_map<std::uint64_t, HazardDomain*> live;
};

Registry& registry() {
  static Registry r;
  return r;
}

class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag& f) : f_(f) {
    while (f_.test_and_set(std::memory_order_acquire)) cpu_relax();
  }
  ~SpinGuard() { f_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& f_;
};

}  // namespace

struct HazardDomain::TlsCache {
  struct Entry {
    std::uint64_t serial;
    HazardDomain* domain;
    ThreadRec* rec;
  };
  std::vector<Entry> entries;

  ~TlsCache() {
    // Return records to still-living domains; stale entries for destroyed
    // domains are simply dropped (their memory died with the domain).
    auto& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    for (const Entry& e : entries) {
      auto it = reg.live.find(e.serial);
      if (it != reg.live.end()) it->second->release_rec(e.rec);
    }
  }
};

HazardDomain::TlsCache& HazardDomain::tls() {
  thread_local TlsCache cache;
  return cache;
}

std::uint64_t HazardDomain::next_serial() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

HazardDomain::HazardDomain() : serial_(next_serial()) {
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.live.emplace(serial_, this);
}

HazardDomain::~HazardDomain() {
  {
    auto& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    reg.live.erase(serial_);
  }
  // No operations may be in flight now. Free everything still pending.
  ThreadRec* rec = head_.load(std::memory_order_acquire);
  while (rec != nullptr) {
    for (auto& r : rec->retired) r.deleter(r.ptr, r.owner);
    ThreadRec* next = rec->next;
    delete rec;
    rec = next;
  }
  for (auto& r : orphans_) r.deleter(r.ptr, r.owner);
}

HazardDomain::ThreadRec* HazardDomain::acquire_rec() {
  // Reuse a released record if possible.
  for (ThreadRec* rec = head_.load(std::memory_order_acquire); rec != nullptr;
       rec = rec->next) {
    bool expected = false;
    if (!rec->in_use.load(std::memory_order_relaxed) &&
        rec->in_use.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      return rec;
    }
  }
  auto* rec = new ThreadRec();
  rec->in_use.store(true, std::memory_order_relaxed);
  ThreadRec* old_head = head_.load(std::memory_order_relaxed);
  do {
    rec->next = old_head;
  } while (!head_.compare_exchange_weak(old_head, rec,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  rec_count_.fetch_add(1, std::memory_order_relaxed);
  return rec;
}

void HazardDomain::release_rec(ThreadRec* rec) {
  for (auto& s : rec->slots) s.store(nullptr, std::memory_order_release);
  for (auto& s : rec->pins) s.store(nullptr, std::memory_order_release);
  rec->pins_claimed = false;
  if (!rec->retired.empty()) {
    SpinGuard g(orphan_mu_);
    orphans_.insert(orphans_.end(), rec->retired.begin(), rec->retired.end());
    rec->retired.clear();
  }
  rec->in_use.store(false, std::memory_order_release);
}

HazardDomain::ThreadCtx HazardDomain::thread_ctx() {
  auto& cache = tls();
  for (const auto& e : cache.entries) {
    if (e.serial == serial_) return ThreadCtx(this, e.rec);
  }
  ThreadRec* rec = acquire_rec();
  cache.entries.push_back({serial_, this, rec});
  return ThreadCtx(this, rec);
}

void HazardDomain::scan(ThreadRec& rec) {
  stats::count(stats::Counter::kHpScanPasses);
  // Adopt orphaned retirements from exited threads.
  {
    SpinGuard g(orphan_mu_);
    if (!orphans_.empty()) {
      rec.retired.insert(rec.retired.end(), orphans_.begin(), orphans_.end());
      orphans_.clear();
    }
  }

  // Stage 1: snapshot every published hazard pointer. The seq_cst fence
  // pairs with the one in ThreadCtx::protect(). A record's traversal slots
  // are read before its pins: ThreadCtx::pin() relies on that order.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::vector<const void*> protected_ptrs;
  protected_ptrs.reserve(rec_count_.load(std::memory_order_relaxed) *
                         (kSlotsPerThread + kPinSlots));
  const auto collect = [&](const std::atomic<const void*>& s) {
    if (const void* p = s.load(std::memory_order_acquire)) {
      protected_ptrs.push_back(p);
    }
  };
  for (ThreadRec* r = head_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    for (const auto& s : r->slots) collect(s);
    for (const auto& s : r->pins) collect(s);
  }
  std::sort(protected_ptrs.begin(), protected_ptrs.end());

  // Stage 2: reclaim everything not protected.
  std::vector<ThreadRec::Retired> still_pending;
  still_pending.reserve(protected_ptrs.size());
  std::uint64_t freed = 0;
  for (const auto& r : rec.retired) {
    if (std::binary_search(protected_ptrs.begin(), protected_ptrs.end(),
                           static_cast<const void*>(r.ptr))) {
      still_pending.push_back(r);
    } else {
      r.deleter(r.ptr, r.owner);
      ++freed;
    }
  }
  rec.retired.swap(still_pending);
  if (freed > 0) stats::count(stats::Counter::kReclaimed, freed);
  reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  retired_estimate_.store(rec.retired.size(), std::memory_order_relaxed);
}

void HazardDomain::flush() {
  ThreadCtx ctx = thread_ctx();
  scan(*ctx.rec_);
}

}  // namespace sv::reclaim
