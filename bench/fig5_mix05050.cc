// Figure 5: throughput for a 0/50/50 insert/remove mix (the paper's
// worst case for the skip vector: write-heavy, coarse-grained chunk
// contention). Expected shape (§V-A): SV still beats USL everywhere;
// at small key ranges with many threads FSL can overtake SV.
#include <memory>

#include "mix_bench.h"

int main(int argc, char** argv) {
  svbench::Options opt(argc, argv);
  if (!svbench::sweep_options_known(opt, "fig5_mix05050")) return 2;
  if (opt.help_requested()) {
    svbench::print_sweep_help("fig5_mix05050", "0/50/50");
    return 0;
  }
  const auto cfg = svbench::sweep_from_options(opt);
  const std::string json_path = opt.str("json", "");
  const sv::benchutil::MixSpec mix{0, 50, 50};
  svbench::BenchReport report("fig5_mix05050");
  svbench::fill_sweep_config(report, mix, cfg);
  svbench::run_sweep("Figure 5: 0/50/50 insert/remove", mix, cfg,
                     json_path.empty() ? nullptr : &report);
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}
