// Timing and tracing primitives for svbench: an exact tick histogram for
// latency percentiles, and per-thread span buffers for the traced run.
//
// Ticks are sv::tsc_now() units (invariant TSC on x86-64, steady_clock
// nanoseconds elsewhere). Every measured phase converts ticks to nanoseconds
// with a rate measured against steady_clock over that same phase, so no
// clock frequency is assumed.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hw.h"

namespace svbench {

// A tick reading paired with a steady_clock reading; two of them give the
// tick rate over the interval between them.
struct ClockMark {
  std::uint64_t ticks = 0;
  std::chrono::steady_clock::time_point wall;

  static ClockMark now() noexcept {
    return {sv::tsc_now(), std::chrono::steady_clock::now()};
  }
};

inline double ticks_per_ns(const ClockMark& a, const ClockMark& b) noexcept {
  const double ns =
      std::chrono::duration<double, std::nano>(b.wall - a.wall).count();
  return ns > 0 ? static_cast<double>(b.ticks - a.ticks) / ns : 1.0;
}

// Exact latency histogram in ticks: one counter per tick value below
// kExact, raw values above it. benchutil::LatencyHistogram is not used
// because it reports bucket bounds 1/64 of an octave apart, a step as wide
// as the effects a comparison looks for. Single writer; merge only after
// the writer has been joined.
class TickHistogram {
 public:
  static constexpr std::uint64_t kExact = std::uint64_t{1} << 16;

  TickHistogram() : counts_(kExact, 0) {}

  void record(std::uint64_t t) {
    if (t < kExact) {
      ++counts_[t];
    } else {
      large_.push_back(t);
    }
    ++n_;
    sum_ += t;
  }

  void merge(const TickHistogram& o) {
    for (std::size_t i = 0; i < kExact; ++i) counts_[i] += o.counts_[i];
    large_.insert(large_.end(), o.large_.begin(), o.large_.end());
    n_ += o.n_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const noexcept { return n_; }
  std::uint64_t sum() const noexcept { return sum_; }

  // Nearest-rank percentile for p in (0, 100]; 0 when empty.
  std::uint64_t percentile(double p) {
    if (n_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n_)));
    rank = std::clamp<std::uint64_t>(rank, 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kExact; ++i) {
      seen += counts_[i];
      if (seen >= rank) return i;
    }
    std::sort(large_.begin(), large_.end());
    return large_[rank - seen - 1];
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> large_;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

// One span per layer boundary the benchmark's own code crosses: the
// request, and each public call it makes into the library.
enum class Span : std::uint16_t {
  kRequest,
  kLookup,
  kInsert,
  kRemove,
  kRange,
  kAttempt,
  kGet,
  kCommit,
  kBackoff,
  kCount
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "request",    "core.lookup", "core.insert", "core.remove", "core.range",
    "txn.attempt", "txn.get",    "txn.commit",  "txn.backoff"};

inline const char* span_name(Span s) noexcept {
  return kSpanNames[static_cast<std::size_t>(s)];
}

struct SpanRecord {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;  // index in the same buffer; -1 for a request
  Span name = Span::kRequest;
};

// Preallocated, capped, single-writer span store. Every recorded request
// is first written here in full (it may use up to kRequestRoom slots); the
// owner then keeps it, or drops it with truncate() once the buffer is full.
class SpanBuffer {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  static constexpr std::size_t kRequestRoom = 1024;

  SpanBuffer() { spans_.reserve(kCapacity + kRequestRoom); }

  // Whether the request just written may stay.
  bool keep() const noexcept { return spans_.size() <= kCapacity; }

  std::size_t size() const noexcept { return spans_.size(); }
  void truncate(std::size_t n) { spans_.resize(n); }

  // Returns the span's index, or -1 when even the headroom is used up.
  int open(Span name, int parent, std::uint64_t request, std::uint64_t start) {
    if (spans_.size() >= kCapacity + kRequestRoom) return -1;
    spans_.push_back({start, 0, request, parent, name});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int idx, std::uint64_t end) noexcept {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end = end;
  }

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

// Self time per span name: each span's duration minus the durations of
// its direct children, summed over every recorded request.
struct LayerTotals {
  std::array<double, kSpanKinds> self_ticks{};
  std::array<std::uint64_t, kSpanKinds> calls{};
  std::uint64_t requests = 0;
  double request_ticks = 0;

  // Adds the spans spans[from..] of one or more complete requests.
  void add(const std::vector<SpanRecord>& spans, std::size_t from) {
    for (std::size_t j = from; j < spans.size(); ++j) {
      const SpanRecord& s = spans[j];
      const double d = static_cast<double>(s.end - s.start);
      const auto i = static_cast<std::size_t>(s.name);
      self_ticks[i] += d;
      ++calls[i];
      if (s.parent >= 0) {
        const Span p = spans[static_cast<std::size_t>(s.parent)].name;
        self_ticks[static_cast<std::size_t>(p)] -= d;
      } else {
        ++requests;
        request_ticks += d;
      }
    }
  }

  void merge(const LayerTotals& o) {
    for (std::size_t i = 0; i < kSpanKinds; ++i) {
      self_ticks[i] += o.self_ticks[i];
      calls[i] += o.calls[i];
    }
    requests += o.requests;
    request_ticks += o.request_ticks;
  }
};

}  // namespace svbench
