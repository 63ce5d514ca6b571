// Ablations for two quantitative claims in the paper's text:
//  (a) §V-A: "the cost of memory reclamation ... lessens for higher key
//      ranges, typically under 20%" -- we measure SV-HP vs SV-Leak overhead
//      across key ranges.
//  (b) §V-B / DESIGN.md: lazy orphan merging -- sweep mergeThreshold
//      (0 disables merging entirely; paper default 1.67; 1.0 used by the
//      tuned Fig. 4a configuration) under a write-heavy mix that produces
//      orphans, and report throughput plus the surviving orphan count.
#include <cstdio>
#include <memory>

#include "baselines/fraser_skiplist.h"
#include "benchutil/driver.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "core/skip_vector_epoch.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::MixSpec;
using sv::benchutil::Options;
using MapHP = sv::core::SkipVector<std::uint64_t, std::uint64_t>;
using MapLeak = sv::core::SkipVectorLeak<std::uint64_t, std::uint64_t>;
using MapEpoch = sv::core::SkipVectorEpoch<std::uint64_t, std::uint64_t>;

template <class Map>
double throughput(const sv::core::Config& cfg, const MixSpec& mix,
                  std::uint64_t range, unsigned threads, double seconds,
                  std::size_t* orphans_out = nullptr) {
  auto m = std::make_unique<Map>(cfg);
  sv::benchutil::prefill_half(*m, range, threads);
  auto r = sv::benchutil::run_mix(*m, mix, range, threads, seconds);
  if (orphans_out != nullptr) {
    auto st = m->stats();
    std::size_t orphans = 0;
    for (const auto& l : st.layers) orphans += l.orphans;
    *orphans_out = orphans;
  }
  return r.mops();
}

}  // namespace

static int run(const Options& opt) {
  opt.reject_unknown({"range-bits", "threads", "seconds", "json"});
  if (opt.help_requested()) {
    std::printf(
        "ablation_merge_hp: HP overhead by key range; mergeThreshold sweep\n"
        "  --range-bits=A,B,..  ranges for the HP ablation (default 14,18,22)\n"
        "  --threads=N          worker threads (default 2)\n"
        "  --seconds=F          seconds per cell (default 0.5)\n"
        "  --json=PATH          also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const auto range_bits = opt.u64_list("range-bits", {14, 18, 22});
  const auto threads = opt.threads(2);
  const double seconds = opt.f64("seconds", 0.5);
  const std::string json_path = opt.str("json", "");

  BenchReport report("ablation_merge_hp");
  report.config().set("threads", threads);
  report.config().set("seconds", seconds);

  std::printf("== Ablation A: reclamation-policy overhead vs key range"
              " (80/10/10, %u threads) ==\n", threads);
  std::printf("  %-8s %12s %12s %12s %10s\n", "bits", "SV-HP", "SV-EBR",
              "SV-Leak", "HP ovhd");
  for (const auto bits : range_bits) {
    const std::uint64_t range = 1ULL << bits;
    const auto cfg = sv::core::Config::for_elements(range / 2);
    const double hp =
        throughput<MapHP>(cfg, MixSpec{80, 10, 10}, range, threads, seconds);
    const double ebr =
        throughput<MapEpoch>(cfg, MixSpec{80, 10, 10}, range, threads,
                             seconds);
    const double leak =
        throughput<MapLeak>(cfg, MixSpec{80, 10, 10}, range, threads, seconds);
    std::printf("  2^%-6llu %12.3f %12.3f %12.3f %9.1f%%\n",
                static_cast<unsigned long long>(bits), hp, ebr, leak,
                leak > 0 ? 100.0 * (leak - hp) / leak : 0.0);
    for (const auto& [name, mops] :
         {std::pair<const char*, double>{"SV-HP", hp},
          {"SV-EBR", ebr},
          {"SV-Leak", leak}}) {
      JsonValue& row = report.add_result(name);
      JsonValue& params = row.set("params", JsonValue::object());
      params.set("range_bits", bits);
      params.set("threads", threads);
      row.set("throughput_mops", mops);
    }
  }

  std::printf("\n== Ablation B: mergeThreshold sweep"
              " (0/50/50 churn, 2^16 keys, %u threads) ==\n", threads);
  std::printf("  %-10s %12s %14s\n", "factor", "Mops/s", "orphans left");
  for (const double f : {0.0, 0.5, 1.0, 1.67, 2.0}) {
    auto cfg = sv::core::Config::for_elements(1ULL << 15);
    cfg.merge_threshold_factor = f;
    std::size_t orphans = 0;
    const double mops = throughput<MapHP>(cfg, MixSpec{0, 50, 50}, 1ULL << 16,
                                          threads, seconds, &orphans);
    std::printf("  %-10.2f %12.3f %14zu\n", f, mops, orphans);
    JsonValue& row = report.add_result("merge_threshold");
    JsonValue& params = row.set("params", JsonValue::object());
    params.set("factor", f);
    params.set("threads", threads);
    row.set("throughput_mops", mops);
    row.set("metrics", JsonValue::object())
        .set("orphans_left", static_cast<std::uint64_t>(orphans));
  }

  // Memory footprint: the chunked layout amortizes per-node overhead
  // (lock, next pointer, malloc header) over T elements; FSL pays it per
  // element plus a tower. This is why the paper's 2^31 runs OOMed FSL
  // while SV completed (§V-A).
  std::printf("\n== Ablation C: node memory footprint after inserting"
              " n keys ==\n");
  std::printf("  %-10s %14s %14s %10s\n", "n", "SV bytes", "FSL bytes",
              "ratio");
  for (const auto bits : {16, 18, 20}) {
    const std::uint64_t n = 1ULL << bits;
    std::size_t sv_bytes = 0, fsl_bytes = 0;
    {
      MapHP m(sv::core::Config::for_elements(n));
      for (std::uint64_t k = 0; k < n; ++k) m.insert(k * 2654435761u, k);
      sv_bytes = m.stats().bytes;
    }
    {
      sv::baselines::FraserSkipList<std::uint64_t, std::uint64_t> m;
      for (std::uint64_t k = 0; k < n; ++k) m.insert(k * 2654435761u, k);
      fsl_bytes = m.memory_bytes();
    }
    std::printf("  2^%-8d %14zu %14zu %9.2fx\n", bits, sv_bytes, fsl_bytes,
                sv_bytes > 0 ? static_cast<double>(fsl_bytes) / sv_bytes
                             : 0.0);
    for (const auto& [name, bytes] :
         {std::pair<const char*, std::size_t>{"footprint_SV", sv_bytes},
          {"footprint_FSL", fsl_bytes}}) {
      JsonValue& row = report.add_result(name);
      row.set("params", JsonValue::object())
          .set("n_bits", static_cast<std::uint64_t>(bits));
      row.set("metrics", JsonValue::object())
          .set("bytes", static_cast<std::uint64_t>(bytes));
    }
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("ablation_merge_hp", argc, argv, run);
}
