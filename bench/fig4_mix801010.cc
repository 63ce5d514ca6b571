// Figure 4: throughput for an 80/10/10 lookup/insert/remove mix, uniform
// keys, across key ranges and thread counts. Expected shape (paper §V-A):
// SV variants beat USL which beats FSL, the gap widening with key range;
// the HP-vs-Leak penalty shrinks as the range grows.
#include <memory>

#include "mix_bench.h"

static int run(const svbench::Options& opt) {
  svbench::reject_unknown_sweep_options(opt);
  if (opt.help_requested()) {
    svbench::print_sweep_help("fig4_mix801010", "80/10/10");
    return 0;
  }
  const auto cfg = svbench::sweep_from_options(opt);
  const std::string json_path = opt.str("json", "");
  const sv::benchutil::MixSpec mix{80, 10, 10};
  svbench::BenchReport report("fig4_mix801010");
  svbench::fill_sweep_config(report, mix, cfg);
  svbench::run_sweep("Figure 4: 80/10/10 lookup/insert/remove", mix, cfg,
                     json_path.empty() ? nullptr : &report);
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("fig4_mix801010", argc, argv, run);
}
