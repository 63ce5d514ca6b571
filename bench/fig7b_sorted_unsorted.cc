// Figure 7b: sorted vs unsorted chunk layouts in the index and data layers
// (four combinations), 80/10/10 mix.
//
// Expected shape (§V-B): sorted index + unsorted data wins -- index chunks
// are lookup-dominated (binary search pays), data chunks absorb most of the
// writes (O(1) unsorted insert/remove pays).
//
// Extension: a data-layout sweep (sorted vs unsorted data chunks, sorted
// index) over two mixes where the choices diverge. Scan-heavy punishes
// unsorted data chunks hard (a range visit sorts the in-range pairs of each
// chunk); write-heavy (0/50/50) pits the paper's O(1) unsorted writes
// against the sorted layout's T/2 shift per point write.
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "benchutil/driver.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/skip_vector.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::MixSpec;
using sv::benchutil::Options;
using sv::vectormap::Layout;

using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;

double run_cell(sv::core::Config cfg, Layout index_layout, Layout data_layout,
                std::uint64_t range, unsigned threads, double seconds,
                unsigned trials) {
  cfg.index_layout = index_layout;
  cfg.data_layout = data_layout;
  auto map = std::make_unique<Map>(cfg);
  sv::benchutil::prefill_half(*map, range, threads);
  auto r = sv::benchutil::run_mix_trials(*map, MixSpec{80, 10, 10}, range,
                                         threads, seconds, trials);
  return r.mops();
}

// Scan-heavy mix the shared driver does not model: 80% range_for_each over
// a short span, 10% insert, 10% remove. Ordered iteration over an unsorted
// chunk pays a per-visit sort, so sorted data chunks win here.
double run_scan_mix(Map& map, std::uint64_t range, unsigned threads,
                    double seconds, std::uint64_t seed) {
  constexpr std::uint64_t kSpan = 128;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> per_thread(threads, 0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sv::Xoshiro256 rng(seed * 7919 + t);
      while (!start.load(std::memory_order_acquire)) {
      }
      std::uint64_t ops = 0;
      std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 32; ++i) {
          const std::uint64_t k = rng.next_below(range);
          const auto dice = rng.next_below(100);
          if (dice < 80) {
            const std::uint64_t hi =
                k + kSpan - 1 < k ? ~std::uint64_t{0} : k + kSpan - 1;
            map.range_for_each(
                k, hi, [&](std::uint64_t, std::uint64_t v) { sink ^= v; });
          } else if (dice < 90) {
            map.insert(k, k ^ 0x5555555555555555ULL);
          } else {
            map.remove(k);
          }
        }
        ops += 32;
      }
      volatile std::uint64_t s = sink;
      (void)s;
      per_thread[t] = ops;
    });
  }
  sv::WallTimer timer;
  start.store(true, std::memory_order_release);
  while (timer.elapsed_seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  const double elapsed = timer.elapsed_seconds();
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (auto ops : per_thread) total += ops;
  return elapsed == 0 ? 0 : total / elapsed / 1e6;
}

// One prepared sweep cell: the map built, prefilled, and warmed with three
// unmeasured intervals of its mix so both cells are measured in steady
// state. Measurement happens TRIAL-INTERLEAVED across the cells of a mix --
// sequential cell-at-a-time measurement turns any slow machine drift
// (thermal, noisy neighbors) into a systematic bias against whichever cell
// runs last.
struct SweepCell {
  std::unique_ptr<Map> map;
  double sum = 0;
};

SweepCell prepare_sweep_cell(sv::core::Config cfg, Layout data_layout,
                             bool scan_heavy, std::uint64_t range,
                             unsigned threads, double seconds) {
  cfg.index_layout = Layout::kSorted;
  cfg.data_layout = data_layout;
  SweepCell cell;
  cell.map = std::make_unique<Map>(cfg);
  sv::benchutil::prefill_half(*cell.map, range, threads);
  if (scan_heavy) {
    run_scan_mix(*cell.map, range, threads, 3 * seconds, /*seed=*/0x7A);
  } else {
    sv::benchutil::run_mix(*cell.map, MixSpec{0, 50, 50}, range, threads,
                           3 * seconds, 0x7A);
  }
  return cell;
}

double measure_sweep_trial(Map& map, bool scan_heavy, std::uint64_t range,
                           unsigned threads, double seconds,
                           std::uint64_t seed) {
  if (scan_heavy) return run_scan_mix(map, range, threads, seconds, seed);
  return sv::benchutil::run_mix(map, MixSpec{0, 50, 50}, range, threads,
                                seconds, seed)
      .mops();
}

}  // namespace

static int run(const Options& opt) {
  opt.reject_unknown({"range-bits", "sweep-range-bits", "sweep-tdata",
                      "threads", "seconds", "trials", "json"});
  if (opt.help_requested()) {
    std::printf(
        "fig7b_sorted_unsorted: chunk layout combinations (80/10/10)\n"
        "  --range-bits=N        key range 2^N (default 20; paper 28)\n"
        "  --sweep-range-bits=N  key range for the layout sweep (default "
        "16)\n"
        "  --sweep-tdata=N       data-chunk target size for the sweep "
        "(default 32)\n"
        "  --threads=N           worker threads (default 2)\n"
        "  --seconds=F           seconds per cell (default 0.5)\n"
        "  --trials=N            trials per cell (default 1)\n"
        "  --json=PATH           also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const auto bits = opt.u64("range-bits", 20);
  const auto sweep_bits = opt.u64("sweep-range-bits", 16);
  // Data-chunk target size for the sweep, exposed as a knob: the layout
  // gap widens with T (ordered scans over unsorted chunks pay a per-visit
  // sort; sorted point writes pay a T/2 shift).
  const auto sweep_tdata =
      static_cast<std::uint32_t>(opt.u64("sweep-tdata", 32));
  const std::uint64_t range = 1ULL << bits;
  const std::uint64_t sweep_range = 1ULL << sweep_bits;
  const auto threads = opt.threads(2);
  const double seconds = opt.f64("seconds", 0.5);
  const auto trials = static_cast<unsigned>(opt.u64("trials", 1));
  const auto cfg = sv::core::Config::for_elements(range / 2);
  const auto sweep_cfg =
      sv::core::Config::for_elements(sweep_range / 2, 32, sweep_tdata);
  const std::string json_path = opt.str("json", "");

  BenchReport report("fig7b_sorted_unsorted");
  report.config().set("range_bits", bits);
  report.config().set("sweep_range_bits", sweep_bits);
  report.config().set("sweep_tdata", sweep_tdata);
  report.config().set("threads", threads);
  report.config().set("seconds", seconds);
  report.config().set("trials", trials);
  const auto report_row = [&](const std::string& name, double mops) {
    JsonValue& row = report.add_result(name);
    row.set("params", JsonValue::object()).set("threads", threads);
    row.set("throughput_mops", mops);
  };

  std::printf("== Figure 7b: sorted/unsorted layer layouts (80/10/10, 2^%llu"
              " keys, %u threads) ==\n",
              static_cast<unsigned long long>(bits), threads);
  std::printf("  %-28s %12s\n", "index/data layout", "Mops/s");
  double mops = run_cell(cfg, Layout::kSorted, Layout::kUnsorted, range,
                         threads, seconds, trials);
  std::printf("  %-28s %12.3f\n", "sorted/unsorted (paper best)", mops);
  report_row("sorted/unsorted", mops);
  mops = run_cell(cfg, Layout::kSorted, Layout::kSorted, range, threads,
                  seconds, trials);
  std::printf("  %-28s %12.3f\n", "sorted/sorted", mops);
  report_row("sorted/sorted", mops);
  mops = run_cell(cfg, Layout::kUnsorted, Layout::kUnsorted, range, threads,
                  seconds, trials);
  std::printf("  %-28s %12.3f\n", "unsorted/unsorted", mops);
  report_row("unsorted/unsorted", mops);
  mops = run_cell(cfg, Layout::kUnsorted, Layout::kSorted, range, threads,
                  seconds, trials);
  std::printf("  %-28s %12.3f\n", "unsorted/sorted", mops);
  report_row("unsorted/sorted", mops);

  // Data-layout sweep: static sorted vs static unsorted data chunks, on the
  // two mixes where those choices diverge.
  struct SweepMix {
    const char* name;
    bool scan_heavy;
  };
  const SweepMix mixes[] = {
      {"scan_heavy", true},
      {"write_heavy", false},
  };
  std::printf("\n== Layout sweep (2^%llu keys, %u threads) ==\n",
              static_cast<unsigned long long>(sweep_bits), threads);
  std::printf("  %-16s %-18s %12s\n", "mix", "data layout", "Mops/s");
  for (const auto& m : mixes) {
    SweepCell cells[2] = {
        prepare_sweep_cell(sweep_cfg, Layout::kSorted, m.scan_heavy,
                           sweep_range, threads, seconds),
        prepare_sweep_cell(sweep_cfg, Layout::kUnsorted, m.scan_heavy,
                           sweep_range, threads, seconds),
    };
    for (unsigned i = 0; i < trials; ++i) {
      for (auto& c : cells) {
        c.sum += measure_sweep_trial(*c.map, m.scan_heavy, sweep_range,
                                     threads, seconds, 0xB12 + i);
      }
    }
    static const char* const kCellNames[2] = {"static_sorted",
                                              "static_unsorted"};
    static const char* const kCellLabels[2] = {"static sorted",
                                               "static unsorted"};
    for (int c = 0; c < 2; ++c) {
      const double mean = cells[c].sum / trials;
      std::printf("  %-16s %-18s %12.3f\n", m.name, kCellLabels[c], mean);
      report_row(std::string(m.name) + "/" + kCellNames[c], mean);
    }
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("fig7b_sorted_unsorted", argc, argv, run);
}
