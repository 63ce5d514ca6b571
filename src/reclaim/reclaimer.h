// Reclaimer policies: how the skip vector (and other structures) manage the
// memory of unlinked nodes. The map is templated on one of these, giving the
// paper's SV-HP / SV-Leak variants (and an immediate-free policy for
// strictly sequential use) with zero overhead for the no-op cases.
//
// Policy concept:
//   struct Reclaimer {
//     class ThreadCtx {
//       void begin_op();                         // operation entry
//       void end_op();                           // operation exit
//       void protect(int slot, const void* p);   // HP.take
//       void drop(int slot);                     // HP.drop
//       void drop_all();                         // HP.dropAll
//       void retire(void* p, OwnedDeleter del, void* owner);  // HP.mark
//       void retire(void* p, void(*del)(void*)); // legacy ownerless form
//     };
//     ThreadCtx thread_ctx();
//   };
//
// retire's owned form invokes del(p, owner) when p is safe to destroy; the
// owner (typically the map) frees the bytes through its node allocator
// (see reclaim/deleter.h and alloc/allocator.h).
//
// A fourth policy, EpochReclaimer, lives in reclaim/epoch.h.
#pragma once

#include "reclaim/deleter.h"
#include "reclaim/hazard_pointers.h"

namespace sv::reclaim {

// Precise reclamation via hazard pointers -- the paper's SV-HP.
class HazardReclaimer {
 public:
  using ThreadCtx = HazardDomain::ThreadCtx;
  ThreadCtx thread_ctx() { return domain_.thread_ctx(); }
  HazardDomain& domain() { return domain_; }

 private:
  HazardDomain domain_;
};

// No reclamation at all -- the paper's SV-Leak (and what FSL does). Unlinked
// nodes are never freed while the structure lives; the structure's
// destructor cannot find them, so they are intentionally leaked exactly as
// in the paper's "Leak" variants.
class LeakReclaimer {
 public:
  class ThreadCtx {
   public:
    void begin_op() noexcept {}
    void end_op() noexcept {}
    void protect(int, const void*) noexcept {}
    void drop(int) noexcept {}
    void drop_all() noexcept {}
    void retire(void*, OwnedDeleter, void*) noexcept {}
    void retire(void*, void (*)(void*)) noexcept {}
  };
  ThreadCtx thread_ctx() noexcept { return {}; }
};

// Immediate free: correct only when the structure is used by one thread at a
// time (the sequential algorithm of §III-A, used for Fig. 1).
class ImmediateReclaimer {
 public:
  class ThreadCtx {
   public:
    void begin_op() noexcept {}
    void end_op() noexcept {}
    void protect(int, const void*) noexcept {}
    void drop(int) noexcept {}
    void drop_all() noexcept {}
    void retire(void* p, OwnedDeleter del, void* owner) { del(p, owner); }
    void retire(void* p, void (*del)(void*)) { del(p); }
  };
  ThreadCtx thread_ctx() noexcept { return {}; }
};

}  // namespace sv::reclaim
