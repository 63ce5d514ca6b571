// Host-speed calibration for svbench. On a machine shared with other
// guests, the speed of a CPU follows what runs beside it: on the KVM guest
// svbench was defined on, the same workload runs 10-40% faster or slower
// from one minute to the next, more than the effects a comparison looks
// for. So every worker alternates between the workload and a fixed
// calibration kernel that never calls the library, in short slices, and
// each time metric is scaled by how fast the kernel ran in the same second:
// host speed = calibration rate / kReferenceRate. A reference-speed value
// is the one a host running the kernel at exactly kReferenceRate would
// show; changes to the library cannot move the kernel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace svbench {

// Searches per second per thread that the calibration kernel ran at on the
// reference host (README.md), three threads at a time in svbench's slices,
// when the benchmark was defined. It only scales the reference-speed
// metrics; any fixed value would compare the same way.
inline constexpr double kReferenceRate = 5.3e6;

// Binary searches for random keys in a sorted array of random keys: a
// branchy, cache-resident search like a chunk search, small enough
// (256 KiB) to stay in one core's L2 next to the workload's own data.
class CalibrationKernel {
 public:
  static constexpr std::size_t kKeys = std::size_t{1} << 15;
  static constexpr unsigned kBatch = 16;  // searches per run()

  explicit CalibrationKernel(std::uint64_t seed) : rng_(seed) {
    keys_.reserve(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) keys_.push_back(rng_.next());
    std::sort(keys_.begin(), keys_.end());
  }

  // Runs kBatch searches and returns how many it ran.
  unsigned run() noexcept {
    std::uint64_t found = 0;
    for (unsigned i = 0; i < kBatch; ++i) {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), rng_.next());
      found += it == keys_.end() ? 0 : *it;
    }
    // Keeps the searches from being optimized away.
    asm volatile("" : : "r"(found) : "memory");
    return kBatch;
  }

 private:
  sv::Xoshiro256 rng_;
  std::vector<std::uint64_t> keys_;
};

}  // namespace svbench
