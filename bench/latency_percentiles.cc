// Tail-latency comparison: per-operation latency percentiles for SV-HP vs
// FSL under a concurrent 80/10/10 mix. Not a numbered paper figure; it
// substantiates the paper's conclusion that the skip vector's
// "predictability and low latency make it an appealing choice for
// high-performance systems" with p99/p99.9 data, and quantifies the cost
// of the blocking design (a preempted lock holder shows up in the tail).
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/fraser_skiplist.h"
#include "benchutil/driver.h"
#include "benchutil/histogram.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/skip_vector.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::LatencyHistogram;
using sv::benchutil::Options;

template <class Map>
LatencyHistogram run(Map& map, std::uint64_t range, unsigned threads,
                     double seconds) {
  std::atomic<bool> start{false}, stop{false};
  std::vector<LatencyHistogram> hists(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sv::Xoshiro256 rng(77 + t);
      auto& h = hists[t];
      while (!start.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(range);
        const auto dice = rng.next_below(100);
        sv::WallTimer op;
        if (dice < 80) {
          volatile bool f = map.lookup(k).has_value();
          (void)f;
        } else if (dice < 90) {
          map.insert(k, k);
        } else {
          map.remove(k);
        }
        h.record(op.elapsed_ns());
      }
    });
  }
  sv::WallTimer timer;
  start.store(true, std::memory_order_release);
  while (timer.elapsed_seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  LatencyHistogram total;
  for (const auto& h : hists) total.merge(h);
  return total;
}

}  // namespace

static int run(const Options& opt) {
  opt.reject_unknown({"range-bits", "threads", "seconds", "json"});
  if (opt.help_requested()) {
    std::printf(
        "latency_percentiles: per-op latency tails, SV-HP vs FSL\n"
        "  --range-bits=N  key range 2^N (default 20)\n"
        "  --threads=N     worker threads (default 2)\n"
        "  --seconds=F     measurement seconds per structure (default 1)\n"
        "  --json=PATH     also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const auto bits = opt.u64("range-bits", 20);
  const std::uint64_t range = 1ULL << bits;
  const auto threads = opt.threads(2);
  const double seconds = opt.f64("seconds", 1.0);
  const std::string json_path = opt.str("json", "");

  BenchReport report("latency_percentiles");
  report.config().set("range_bits", bits);
  report.config().set("threads", threads);
  report.config().set("seconds", seconds);
  const auto report_row = [&](const char* name, const LatencyHistogram& h) {
    JsonValue& row = report.add_result(name);
    JsonValue& params = row.set("params", JsonValue::object());
    params.set("range_bits", bits);
    params.set("threads", threads);
    JsonValue& lat = row.set("latency_ns", JsonValue::object());
    lat.set("count", h.count());
    lat.set("mean", h.mean());
    lat.set("p50", h.percentile(50));
    lat.set("p90", h.percentile(90));
    lat.set("p99", h.percentile(99));
    lat.set("p999", h.percentile(99.9));
    lat.set("max", h.max());
  };

  std::printf("== Per-operation latency, 80/10/10, 2^%llu keys, %u threads"
              " ==\n",
              static_cast<unsigned long long>(bits), threads);
  {
    sv::core::SkipVector<std::uint64_t, std::uint64_t> m(
        sv::core::Config::for_elements(range / 2));
    sv::benchutil::prefill_half(m, range, threads);
    auto h = run(m, range, threads, seconds);
    std::printf("  SV-HP: %s\n", h.summary().c_str());
    report_row("SV-HP", h);
  }
  {
    sv::baselines::FraserSkipList<std::uint64_t, std::uint64_t> m;
    sv::benchutil::prefill_half(m, range, threads);
    auto h = run(m, range, threads, seconds);
    std::printf("  FSL:   %s\n", h.summary().c_str());
    report_row("FSL", h);
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("latency_percentiles", argc, argv, run);
}
