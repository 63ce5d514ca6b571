// Correctness oracles for svbench. A throughput number from a map that lost
// or invented data is worse than no number, so every workload checks what
// the map returns, and each check is a separate function that
// oracle_test.cc proves can fail.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svbench {

// The value every benchmark write stores for key k (prefill and inserts
// alike), so any value read back can be checked on its own.
constexpr std::uint64_t value_of(std::uint64_t k) noexcept {
  return (k * 0x9E3779B97F4A7C15ULL) ^ 0xA5A5A5A5A5A5A5A5ULL;
}

constexpr bool value_ok(std::uint64_t k, std::uint64_t v) noexcept {
  return v == value_of(k);
}

// Checks the pairs one range_for_each(lo, hi) call delivers, as they
// arrive: strictly ascending, inside [lo, hi], and each value value_of(k).
class ScanCheck {
 public:
  ScanCheck(std::uint64_t lo, std::uint64_t hi) noexcept : lo_(lo), hi_(hi) {}

  void operator()(std::uint64_t k, std::uint64_t v) noexcept {
    ok_ = ok_ && k >= lo_ && k <= hi_ && (keys_ == 0 || k > last_) &&
          value_ok(k, v);
    last_ = k;
    ++keys_;
  }

  bool ok() const noexcept { return ok_; }
  std::size_t keys() const noexcept { return keys_; }

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
  std::uint64_t last_ = 0;
  std::size_t keys_ = 0;
  bool ok_ = true;
};

// A quiescent walk over a whole map: how many keys, their sum of values,
// how many values are not value_of(k), and whether keys ascend strictly.
struct MapSummary {
  std::uint64_t keys = 0;
  std::uint64_t value_sum = 0;
  std::uint64_t bad_values = 0;
  bool ascending = true;
};

template <class Map>
MapSummary summarize(const Map& map) {
  MapSummary s;
  std::uint64_t last = 0;
  map.for_each([&](std::uint64_t k, std::uint64_t v) {
    if (s.keys > 0 && k <= last) s.ascending = false;
    if (!value_ok(k, v)) ++s.bad_values;
    s.value_sum += v;
    last = k;
    ++s.keys;
  });
  return s;
}

// Point and scan workloads: the keys present at the end must be the
// prefill plus every insert that reported success minus every remove that
// reported success, and every stored value must be value_of(k).
constexpr bool population_ok(std::uint64_t prefilled, std::uint64_t inserted,
                             std::uint64_t removed,
                             const MapSummary& end) noexcept {
  return end.ascending && end.bad_values == 0 &&
         prefilled + inserted == end.keys + removed;
}

// ycsb-t: rows start at 0 and every committed write adds 1, so the row sum
// equals the committed increments unless an update was lost or invented.
constexpr bool increments_ok(std::uint64_t rows, std::uint64_t committed,
                             const MapSummary& end) noexcept {
  return end.ascending && end.keys == rows && end.value_sum == committed;
}

}  // namespace svbench
