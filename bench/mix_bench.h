// Shared sweep driver for Figures 4 and 5: concurrent op-mix throughput of
// SV-HP / SV-Leak / USL-HP / USL-Leak / FSL across key ranges and thread
// counts, with half-range prefill -- the paper's §V-A methodology.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fraser_skiplist.h"
#include "baselines/lazy_skiplist.h"
#include "benchutil/driver.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "core/skip_vector.h"
#include "stats/stats.h"

namespace svbench {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::MixSpec;
using sv::benchutil::Options;

struct SweepConfig {
  std::vector<std::uint64_t> range_bits;
  std::vector<std::uint64_t> threads;
  double seconds;
  unsigned trials;
  bool include_usl_hp;
  bool include_tuned;  // the paper's SV-HP-Tune (Fig. 4a):
                       // T_D=64, mergeThreshold=1.0, 4 layers
  bool include_lazy;   // extension: lock-based lazy skip list column
  bool include_pool;   // extension: SV-HP on the slab pool allocator
  double zipf_theta;   // 0 = uniform (paper); >0 = skewed extension
};

inline SweepConfig sweep_from_options(const Options& opt) {
  SweepConfig s;
  // Paper: 2^20 / 2^24 / 2^28 / 2^31. Laptop defaults stay cache-relevant
  // but tractable; scale with --range-bits=20,24,28,31.
  s.range_bits = opt.u64_list("range-bits", {16, 20});
  s.threads = opt.u64_list("threads", {1, 2, 4});
  s.seconds = opt.f64("seconds", 0.5);
  s.trials = static_cast<unsigned>(opt.u64("trials", 1));
  s.include_usl_hp = !opt.flag("no-usl-hp");
  s.include_tuned = opt.flag("tuned");
  s.include_lazy = opt.flag("lazy");
  s.include_pool = opt.flag("pool");
  s.zipf_theta = opt.f64("zipf", 0.0);
  return s;
}

// The flags sweep_from_options reads, plus --json; fig4 and fig5 exit 2 on
// any other.
inline bool sweep_options_known(const Options& opt, const char* figure) {
  return opt.only_known(figure, {"range-bits", "threads", "seconds", "trials",
                                 "no-usl-hp", "tuned", "lazy", "pool", "zipf",
                                 "json"});
}

inline void print_sweep_help(const char* figure, const char* mix) {
  std::printf(
      "%s: concurrent %s throughput sweep (SV vs USL vs FSL)\n"
      "  --range-bits=A,B,..  key ranges as powers of two (default 16,20)\n"
      "  --threads=A,B,..     thread counts (default 1,2,4)\n"
      "  --seconds=F          measured seconds per cell (default 0.5)\n"
      "  --trials=N           trials per cell, averaged (default 1)\n"
      "  --no-usl-hp          skip the USL-HP variant\n"
      "  --tuned              add the paper's SV-HP-Tune configuration\n"
      "  --lazy               add a lock-based lazy skip list column\n"
      "  --pool               add SV-HP on the slab pool allocator\n"
      "  --zipf=F             Zipfian key skew theta (default 0 = uniform)\n"
      "  --json=PATH          also write sv-bench JSON ('-' = stdout)\n",
      figure, mix);
}

// Record the sweep parameters in the report's config section.
inline void fill_sweep_config(BenchReport& report, const MixSpec& mix,
                              const SweepConfig& cfg) {
  JsonValue& c = report.config();
  c.set("mix", mix.name());
  JsonValue rb = JsonValue::array();
  for (const auto b : cfg.range_bits) rb.push(b);
  c.set("range_bits", std::move(rb));
  JsonValue th = JsonValue::array();
  for (const auto t : cfg.threads) th.push(t);
  c.set("threads", std::move(th));
  c.set("seconds", cfg.seconds);
  c.set("trials", cfg.trials);
  c.set("zipf_theta", cfg.zipf_theta);
}

// Instrumented maps expose stats_registry(); others report empty stats.
template <class Map>
sv::stats::Snapshot stats_of(const Map& m) {
  if constexpr (requires { m.stats_registry(); }) {
    return m.stats_registry().snapshot();
  } else {
    return {};
  }
}

struct CellResult {
  double mops = 0;
  std::vector<double> thread_mops;
  sv::stats::Snapshot stats;  // measured phase only (prefill excluded)
};

template <class MapMaker>
CellResult run_cell(MapMaker make, const MixSpec& mix, std::uint64_t range,
                    unsigned threads, double seconds, unsigned trials) {
  auto map = make();
  sv::benchutil::prefill_half(*map, range, threads);
  const auto base = stats_of(*map);
  auto r = sv::benchutil::run_mix_trials(*map, mix, range, threads, seconds,
                                         trials);
  return {r.mops(), std::move(r.thread_mops), stats_of(*map) - base};
}

// Append one sweep cell to the report (no-op when report is null).
inline void report_cell(BenchReport* report, const char* impl,
                        std::uint64_t range_bits, unsigned threads,
                        const CellResult& cell) {
  if (report == nullptr) return;
  JsonValue& row = report->add_result(impl);
  JsonValue& params = row.set("params", JsonValue::object());
  params.set("range_bits", range_bits);
  params.set("threads", threads);
  row.set("throughput_mops", cell.mops);
  JsonValue per_thread = JsonValue::array();
  for (const double m : cell.thread_mops) per_thread.push(m);
  row.set("thread_mops", std::move(per_thread));
  if (sv::stats::kEnabled) {
    row.set("stats", sv::benchutil::stats_json(cell.stats));
  }
}

inline void run_sweep(const char* title, MixSpec mix, const SweepConfig& cfg,
                      BenchReport* report = nullptr) {
  mix.zipf_theta = cfg.zipf_theta;
  using K = std::uint64_t;
  using V = std::uint64_t;
  namespace core = sv::core;

  std::printf("== %s ==\n", title);
  std::printf("   mix %s, prefill 50%%, %.2fs x %u trials per cell\n",
              mix.name().c_str(), cfg.seconds, cfg.trials);

  for (const auto bits : cfg.range_bits) {
    const std::uint64_t range = 1ULL << bits;
    const std::uint64_t expected = range / 2;
    std::printf("\n-- key range 2^%llu --\n",
                static_cast<unsigned long long>(bits));
    std::printf("  %-10s", "threads");
    std::printf(" %12s %12s", "SV-HP", "SV-Leak");
    if (cfg.include_pool) std::printf(" %12s", "SV-HP-Pool");
    if (cfg.include_tuned) std::printf(" %12s", "SV-HP-Tune");
    if (cfg.include_usl_hp) std::printf(" %12s", "USL-HP");
    std::printf(" %12s %12s", "USL-Leak", "FSL");
    if (cfg.include_lazy) std::printf(" %12s", "LazySL");
    std::printf("\n");

    for (const auto t64 : cfg.threads) {
      const auto threads = static_cast<unsigned>(t64);
      const auto sv_cfg = core::Config::for_elements(expected);
      const auto usl_cfg = core::Config::usl_for_elements(expected);

      const CellResult sv_hp = run_cell(
          [&] {
            return std::make_unique<core::SkipVector<K, V>>(sv_cfg);
          },
          mix, range, threads, cfg.seconds, cfg.trials);
      report_cell(report, "SV-HP", bits, threads, sv_hp);
      const CellResult sv_leak = run_cell(
          [&] {
            return std::make_unique<core::SkipVectorLeak<K, V>>(sv_cfg);
          },
          mix, range, threads, cfg.seconds, cfg.trials);
      report_cell(report, "SV-Leak", bits, threads, sv_leak);
      CellResult sv_pool;
      if (cfg.include_pool) {
        sv_pool = run_cell(
            [&] {
              return std::make_unique<core::SkipVectorPool<K, V>>(sv_cfg);
            },
            mix, range, threads, cfg.seconds, cfg.trials);
        report_cell(report, "SV-HP-Pool", bits, threads, sv_pool);
      }
      CellResult tuned;
      if (cfg.include_tuned) {
        core::Config tcfg = sv_cfg;
        tcfg.target_data_vector_size = 64;
        tcfg.merge_threshold_factor = 1.0;
        tcfg.layer_count = tcfg.layer_count > 4 ? 4 : tcfg.layer_count;
        tuned = run_cell(
            [&] {
              return std::make_unique<core::SkipVector<K, V>>(tcfg);
            },
            mix, range, threads, cfg.seconds, cfg.trials);
        report_cell(report, "SV-HP-Tune", bits, threads, tuned);
      }
      CellResult usl_hp;
      if (cfg.include_usl_hp) {
        usl_hp = run_cell(
            [&] {
              return std::make_unique<core::SkipVector<K, V>>(usl_cfg);
            },
            mix, range, threads, cfg.seconds, cfg.trials);
        report_cell(report, "USL-HP", bits, threads, usl_hp);
      }
      const CellResult usl_leak = run_cell(
          [&] {
            return std::make_unique<core::SkipVectorLeak<K, V>>(usl_cfg);
          },
          mix, range, threads, cfg.seconds, cfg.trials);
      report_cell(report, "USL-Leak", bits, threads, usl_leak);
      const CellResult fsl = run_cell(
          [&] {
            return std::make_unique<sv::baselines::FraserSkipList<K, V>>();
          },
          mix, range, threads, cfg.seconds, cfg.trials);
      report_cell(report, "FSL", bits, threads, fsl);
      CellResult lazy;
      if (cfg.include_lazy) {
        lazy = run_cell(
            [&] {
              return std::make_unique<sv::baselines::LazySkipList<K, V>>();
            },
            mix, range, threads, cfg.seconds, cfg.trials);
        report_cell(report, "LazySL", bits, threads, lazy);
      }

      std::printf("  %-10u %12.3f %12.3f", threads, sv_hp.mops, sv_leak.mops);
      if (cfg.include_pool) std::printf(" %12.3f", sv_pool.mops);
      if (cfg.include_tuned) std::printf(" %12.3f", tuned.mops);
      if (cfg.include_usl_hp) std::printf(" %12.3f", usl_hp.mops);
      std::printf(" %12.3f %12.3f", usl_leak.mops, fsl.mops);
      if (cfg.include_lazy) std::printf(" %12.3f", lazy.mops);
      std::printf("\n");
    }
  }
}

}  // namespace svbench
