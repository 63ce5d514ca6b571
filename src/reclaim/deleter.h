// Owned deleters for the reclaim layer.
//
// A bare `void(*)(void*)` cannot say whose memory a retired chunk is, but
// each map counts its own live bytes (alloc/allocator.h; svbench's
// bytes_per_key reads them), so a reclaimed chunk must be freed through the
// *owning* map's allocator. A retirement therefore carries (ptr, deleter,
// owner): the reclaimer invokes `deleter(ptr, owner)` and the owner
// (typically the map instance) frees the bytes through its allocator.
//
// The 1-arg form is kept as a convenience overload on every retire() (tests
// and simple users): it smuggles the old `void(*)(void*)` through the owner
// slot and dispatches via invoke_unowned.
#pragma once

namespace sv::reclaim {

// Deleter invoked as deleter(ptr, owner). `owner` is an opaque context
// pointer (the retiring component); it must outlive the reclaimer that
// holds the retirement.
using OwnedDeleter = void (*)(void* ptr, void* owner);

// Trampoline for the ownerless legacy form: `owner` is actually the old
// 1-arg deleter. Function-pointer <-> void* round-trips are
// implementation-defined but universally supported on POSIX targets (dlsym
// depends on it).
inline void invoke_unowned(void* ptr, void* fn) {
  reinterpret_cast<void (*)(void*)>(fn)(ptr);
}

}  // namespace sv::reclaim
