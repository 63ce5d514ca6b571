// Figure 7a: sensitivity to targetIndexVectorSize for an 80/10/10 mix,
// adjusting layerCount to the minimum preserving the asymptotic guarantee,
// everything else fixed. The paper also discusses (but omits the graph for)
// the targetDataVectorSize sweep; we print both.
//
// Expected shape (§V-B): a shallow bowl -- worst configuration ~25% below
// the best; best around T=32..64; both very small (skip-list-like) and very
// large (expensive vector ops) degrade.
#include <cstdio>
#include <memory>

#include "benchutil/driver.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "core/skip_vector.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::MixSpec;
using sv::benchutil::Options;
using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;

double run_cell(const sv::core::Config& cfg, std::uint64_t range,
                unsigned threads, double seconds, unsigned trials) {
  auto map = std::make_unique<Map>(cfg);
  sv::benchutil::prefill_half(*map, range, threads);
  auto r = sv::benchutil::run_mix_trials(*map, MixSpec{80, 10, 10}, range,
                                         threads, seconds, trials);
  return r.mops();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  if (!opt.only_known("fig7a_sensitivity",
                       {"range-bits", "threads", "seconds", "trials", "sizes",
                        "json"})) {
    return 2;
  }
  if (opt.help_requested()) {
    std::printf(
        "fig7a_sensitivity: throughput vs target vector sizes\n"
        "  --range-bits=N  key range 2^N (default 20; paper 28)\n"
        "  --threads=N     worker threads (default 2)\n"
        "  --seconds=F     seconds per cell (default 0.5)\n"
        "  --trials=N      trials per cell (default 1)\n"
        "  --sizes=list    target sizes to sweep (default 1..256)\n"
        "  --json=PATH     also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const auto bits = opt.u64("range-bits", 20);
  const std::uint64_t range = 1ULL << bits;
  const auto threads = static_cast<unsigned>(opt.u64("threads", 2));
  const double seconds = opt.f64("seconds", 0.5);
  const auto trials = static_cast<unsigned>(opt.u64("trials", 1));
  const auto sizes = opt.u64_list("sizes", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  const std::string json_path = opt.str("json", "");

  BenchReport report("fig7a_sensitivity");
  report.config().set("range_bits", bits);
  report.config().set("threads", threads);
  report.config().set("seconds", seconds);
  report.config().set("trials", trials);
  const auto report_row = [&](const char* sweep, std::uint64_t size,
                              unsigned layers, double mops) {
    JsonValue& row = report.add_result(sweep);
    JsonValue& params = row.set("params", JsonValue::object());
    params.set("target_size", size);
    params.set("layers", layers);
    row.set("throughput_mops", mops);
  };

  std::printf("== Figure 7a: configuration sensitivity (80/10/10, 2^%llu"
              " keys, %u threads) ==\n",
              static_cast<unsigned long long>(bits), threads);

  std::printf("\n-- sweep targetIndexVectorSize (T_D fixed at 32) --\n");
  std::printf("  %-8s %8s %12s\n", "T_I", "layers", "Mops/s");
  for (const auto ti : sizes) {
    auto cfg = sv::core::Config::for_elements(
        range / 2, static_cast<std::uint32_t>(ti), 32);
    const double mops = run_cell(cfg, range, threads, seconds, trials);
    std::printf("  %-8llu %8u %12.3f\n", static_cast<unsigned long long>(ti),
                cfg.layer_count, mops);
    report_row("sweep_T_I", ti, cfg.layer_count, mops);
  }

  std::printf("\n-- sweep targetDataVectorSize (T_I fixed at 32; graph"
              " omitted in the paper, same expected shape) --\n");
  std::printf("  %-8s %8s %12s\n", "T_D", "layers", "Mops/s");
  for (const auto td : sizes) {
    auto cfg = sv::core::Config::for_elements(
        range / 2, 32, static_cast<std::uint32_t>(td));
    const double mops = run_cell(cfg, range, threads, seconds, trials);
    std::printf("  %-8llu %8u %12.3f\n", static_cast<unsigned long long>(td),
                cfg.layer_count, mops);
    report_row("sweep_T_D", td, cfg.layer_count, mops);
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}
