// Figure 8: throughput of all-range workloads (mutating range queries) over
// 2^20 keys, for a small (2^12) and a large (2^17) query span, comparing the
// default skip vector against a tuned non-chunked configuration (the paper's
// "SL"), both serializable via two-phase locking over the data layer.
//
// Expected shape (§V-B): SV substantially ahead while parallelism exists;
// with the large span (1/8 of the key space per query) contention caps
// scaling for both.
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/driver.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/sharded.h"
#include "core/skip_vector.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::Options;

template <class Map>
double run_range_workload(Map& map, std::uint64_t key_range,
                          std::uint64_t span, unsigned threads,
                          double seconds) {
  std::atomic<bool> start{false}, stop{false};
  std::vector<std::uint64_t> ops(threads, 0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sv::Xoshiro256 rng(41 + t);
      while (!start.load(std::memory_order_acquire)) {
      }
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = rng.next_below(key_range - span);
        map.range_transform(lo, lo + span - 1,
                            [](std::uint64_t, std::uint64_t v) {
                              return v + 1;  // mutating query
                            });
        ++local;
      }
      ops[t] = local;
    });
  }
  sv::WallTimer timer;
  start.store(true, std::memory_order_release);
  while (timer.elapsed_seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  const double secs = timer.elapsed_seconds();
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  return static_cast<double>(total) / secs / 1e3;  // Kops/s
}

// Scan-vs-writer cell: `scanners` threads repeatedly scan a random span
// while `writers` threads churn the key space with the 0/50/50 point mix
// (no lookups, half inserts, half removes) — the workload where a
// retrying or lock-taking scan degrades. kLocked scans through the 2PL
// range path; kSnapshot pins a version per scan and walks it wait-free
// (docs/SNAPSHOTS.md). Returns completed scans in Kops/s.
enum class ScanKind { kLocked, kSnapshot };

template <class Map>
double run_scan_under_writers(Map& map, std::uint64_t key_range,
                              std::uint64_t span, unsigned scanners,
                              unsigned writers, double seconds,
                              ScanKind kind) {
  std::atomic<bool> start{false}, stop{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::uint64_t> ops(scanners, 0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < scanners; ++t) {
    workers.emplace_back([&, t] {
      sv::Xoshiro256 rng(171 + t);
      while (!start.load(std::memory_order_acquire)) {
      }
      std::uint64_t local = 0, acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t lo = rng.next_below(key_range - span);
        const auto fn = [&acc](std::uint64_t, std::uint64_t v) { acc += v; };
        if (kind == ScanKind::kSnapshot) {
          const auto view = map.snapshot_at();
          map.range_for_each_at(view, lo, lo + span - 1, fn);
        } else {
          map.range_for_each(lo, lo + span - 1, fn);
        }
        ++local;
      }
      ops[t] = local;
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  for (unsigned t = 0; t < writers; ++t) {
    workers.emplace_back([&, t] {
      sv::Xoshiro256 rng(977 + t);
      while (!start.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(key_range);
        if (rng.next_below(2) == 0) {
          map.insert(k, k);
        } else {
          map.remove(k);
        }
      }
    });
  }
  sv::WallTimer timer;
  start.store(true, std::memory_order_release);
  while (timer.elapsed_seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  const double secs = timer.elapsed_seconds();
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  return static_cast<double>(total) / secs / 1e3;  // Kops/s
}

}  // namespace

static int run(const Options& opt) {
  opt.reject_unknown({"range-bits", "spans", "threads", "seconds", "shards",
                      "writers", "json"});
  if (opt.help_requested()) {
    std::printf(
        "fig8_range: mutating range-query throughput, SV vs non-chunked SL\n"
        "  --range-bits=N   key range 2^N (default 20, as in the paper)\n"
        "  --spans=A,B      query span bits (default 12,17, as in the paper)\n"
        "  --threads=A,B,.. thread counts (default 1,2,4)\n"
        "  --seconds=F      seconds per cell (default 0.5)\n"
        "  --shards=N       also run a ShardedSkipVector column with N"
        " shards (extension; cross-shard ranges lose whole-range"
        " atomicity)\n"
        "  --writers=N      scan-under-write-mix section: N writer threads"
        " run the 0/50/50 point mix (as fig5) against each scanner count,"
        " comparing locked scans (SV-Lock) with wait-free versioned"
        " snapshot scans (SV-Snap); default = each cell's thread count,"
        " 0 disables the section\n"
        "  --json=PATH      also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const auto bits = opt.u64("range-bits", 20);
  const std::uint64_t range = 1ULL << bits;
  const auto spans = opt.u64_list("spans", {12, 17});
  const auto threads_list = opt.threads_list({1, 2, 4});
  const double seconds = opt.f64("seconds", 0.5);

  const auto shards = static_cast<std::uint32_t>(opt.u64("shards", 0));
  // Unset: each cell's writer count is its scanner count.
  const bool writers_default = opt.str("writers", "").empty();
  const std::uint64_t writers_opt = opt.u64("writers", 1);
  if (writers_opt > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument("bad writer count: " +
                                std::to_string(writers_opt));
  }
  const std::string json_path = opt.str("json", "");

  BenchReport report("fig8_range");
  report.config().set("range_bits", bits);
  report.config().set("seconds", seconds);
  report.config().set("shards", shards);
  // Range throughput is in Kops/s, not Mops/s; report it under metrics.
  const auto report_row = [&](const char* name, std::uint64_t span_bits,
                              unsigned threads, double kops) {
    JsonValue& row = report.add_result(name);
    JsonValue& params = row.set("params", JsonValue::object());
    params.set("span_bits", span_bits);
    params.set("threads", threads);
    row.set("metrics", JsonValue::object()).set("range_kops", kops);
  };

  using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;
  const auto sv_cfg = sv::core::Config::for_elements(range / 2);
  const auto sl_cfg = sv::core::Config::sl_for_elements(range / 2);

  std::printf("== Figure 8: all-range mutating workloads, 2^%llu keys ==\n",
              static_cast<unsigned long long>(bits));
  for (const auto span_bits : spans) {
    const std::uint64_t span = 1ULL << span_bits;
    std::printf("\n-- query span 2^%llu --\n",
                static_cast<unsigned long long>(span_bits));
    std::printf("  %-10s %14s %14s", "threads", "SV (Kops/s)", "SL (Kops/s)");
    if (shards > 0) std::printf(" %14s", "Sharded");
    std::printf("\n");
    for (const unsigned threads : threads_list) {
      double sv_kops, sl_kops, sh_kops = 0;
      {
        Map m(sv_cfg);
        sv::benchutil::prefill_half(m, range, threads);
        sv_kops = run_range_workload(m, range, span, threads, seconds);
      }
      {
        Map m(sl_cfg);
        sv::benchutil::prefill_half(m, range, threads);
        sl_kops = run_range_workload(m, range, span, threads, seconds);
      }
      if (shards > 0) {
        sv::core::ShardedSkipVector<std::uint64_t, std::uint64_t> m(
            range, shards, sv_cfg);
        sv::benchutil::prefill_half(m, range, threads);
        sh_kops = run_range_workload(m, range, span, threads, seconds);
      }
      std::printf("  %-10u %14.2f %14.2f", threads, sv_kops, sl_kops);
      if (shards > 0) std::printf(" %14.2f", sh_kops);
      std::printf("\n");
      report_row("SV", span_bits, threads, sv_kops);
      report_row("SL", span_bits, threads, sl_kops);
      if (shards > 0) report_row("Sharded", span_bits, threads, sh_kops);
    }
  }
  // Scan-under-write-mix section: how does read-side range throughput
  // hold up when writers churn the map? The locked 2PL scan (SV-Lock)
  // serializes against the write storm; the versioned snapshot scan
  // (SV-Snap, docs/SNAPSHOTS.md) never takes chunk locks and never
  // restarts, so its curve must not collapse — that is the property the
  // CI soft gate pins (ci/baselines/BENCH_fig8.json).
  if (writers_opt != 0) {
    const auto report_mix_row = [&](const char* name, std::uint64_t span_bits,
                                    unsigned threads, unsigned writers,
                                    double kops) {
      JsonValue& row = report.add_result(name);
      JsonValue& params = row.set("params", JsonValue::object());
      params.set("span_bits", span_bits);
      params.set("threads", threads);
      params.set("writers", writers);
      row.set("metrics", JsonValue::object()).set("range_kops", kops);
    };
    std::printf(
        "\n== Scans under the 0/50/50 write mix (insert/remove churn) ==\n");
    for (const auto span_bits : spans) {
      const std::uint64_t span = 1ULL << span_bits;
      std::printf("\n-- query span 2^%llu --\n",
                  static_cast<unsigned long long>(span_bits));
      std::printf("  %-10s %-10s %14s %14s\n", "scanners", "writers",
                  "SV-Lock", "SV-Snap");
      for (const unsigned threads : threads_list) {
        const auto writers = writers_default
                                 ? threads
                                 : static_cast<unsigned>(writers_opt);
        double lock_kops, snap_kops;
        {
          Map m(sv_cfg);
          sv::benchutil::prefill_half(m, range, threads);
          lock_kops = run_scan_under_writers(m, range, span, threads, writers,
                                             seconds, ScanKind::kLocked);
        }
        {
          Map m(sv_cfg);
          sv::benchutil::prefill_half(m, range, threads);
          snap_kops = run_scan_under_writers(m, range, span, threads, writers,
                                             seconds, ScanKind::kSnapshot);
        }
        std::printf("  %-10u %-10u %14.2f %14.2f\n", threads, writers,
                    lock_kops, snap_kops);
        report_mix_row("SV-Lock", span_bits, threads, writers, lock_kops);
        report_mix_row("SV-Snap", span_bits, threads, writers, snap_kops);
      }
    }
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("fig8_range", argc, argv, run);
}
