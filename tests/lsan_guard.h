// LeakSanitizer exemption for the map variants that leak by design: a
// LeakReclaimer map on the malloc passthrough never frees the chunks it
// unlinks. Allocations a thread makes while a guard lives on that thread
// are not reported; every other allocation stays leak-checked. LSan's
// disable counter is per thread, so every thread that allocates through
// such a map constructs its own guard first thing. A no-op outside ASan
// builds, and when `active` is false.
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#define SV_TEST_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SV_TEST_ASAN 1
#endif
#endif
#if defined(SV_TEST_ASAN)
#include <sanitizer/lsan_interface.h>
#endif

namespace sv::test {

class LeakCheckDisabler {
 public:
  explicit LeakCheckDisabler(bool active = true) : active_(active) {
#if defined(SV_TEST_ASAN)
    if (active_) __lsan_disable();
#endif
  }
  ~LeakCheckDisabler() {
#if defined(SV_TEST_ASAN)
    if (active_) __lsan_enable();
#endif
  }
  LeakCheckDisabler(const LeakCheckDisabler&) = delete;
  LeakCheckDisabler& operator=(const LeakCheckDisabler&) = delete;

 private:
  [[maybe_unused]] bool active_;
};

}  // namespace sv::test
