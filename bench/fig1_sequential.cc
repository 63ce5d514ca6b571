// Figure 1: sequential ordered-set performance as a function of key range,
// 80/10/10 lookup/insert/remove, structure prefilled with half the keys.
// Contenders: unsorted vector, sorted vector, std::map, sequential skip
// list -- plus the sequential skip vector, which the paper's Fig. 1
// predates but whose crossover behavior is the motivation for the design.
//
// Expected shape (paper §I): vectors win at small ranges and collapse as
// the range grows; the tree and skip list stay flat; the skip vector tracks
// the vectors early and the log structures late.
#include <cstdio>
#include <string>

#include "baselines/sequential_maps.h"
#include "benchutil/driver.h"
#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "core/skip_vector.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::MixSpec;
using sv::benchutil::Options;

// Deterministic half-prefill: every other key, appended in ascending order
// (cheap even for the O(n)-insert vectors).
template <class Map>
void prefill_alternating(Map& m, std::uint64_t key_range) {
  for (std::uint64_t k = 0; k < key_range; k += 2) m.insert(k, k);
}

template <class Map>
double run_cell(Map& m, std::uint64_t key_range, double seconds,
                unsigned trials) {
  prefill_alternating(m, key_range);
  const MixSpec mix{80, 10, 10};
  auto r = sv::benchutil::run_mix_trials(m, mix, key_range, /*threads=*/1,
                                         seconds, trials);
  return r.mops();
}

}  // namespace

static int run(const Options& opt) {
  opt.reject_unknown({"min-bits", "max-bits", "seconds", "trials",
                      "json"});
  if (opt.help_requested()) {
    std::printf(
        "fig1_sequential: sequential 80/10/10 set benchmark vs key range\n"
        "  --min-bits=N     smallest key range 2^N (default 4)\n"
        "  --max-bits=N     largest key range 2^N (default 16; paper ~22)\n"
        "  --seconds=F      measured seconds per cell (default 0.2)\n"
        "  --trials=N       trials per cell, averaged (default 1)\n"
        "  --json=PATH      also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const auto min_bits = opt.u64("min-bits", 4);
  const auto max_bits = opt.u64("max-bits", 16);
  const double seconds = opt.f64("seconds", 0.2);
  const auto trials = static_cast<unsigned>(opt.u64("trials", 1));
  const std::string json_path = opt.str("json", "");

  BenchReport report("fig1_sequential");
  report.config().set("min_bits", min_bits);
  report.config().set("max_bits", max_bits);
  report.config().set("seconds", seconds);
  report.config().set("trials", trials);
  const auto report_row = [&](const char* name, std::uint64_t bits,
                              double mops) {
    JsonValue& row = report.add_result(name);
    row.set("params", JsonValue::object()).set("range_bits", bits);
    row.set("throughput_mops", mops);
  };

  std::printf("== Figure 1: sequential set performance vs key range ==\n");
  std::printf("   mix 80/10/10, prefill 50%%, %0.2fs x %u trials per cell\n",
              seconds, trials);
  std::printf("  %-6s %16s %16s %16s %16s %16s\n", "bits", "unsorted_vec",
              "sorted_vec", "std_map", "seq_skiplist", "skip_vector");

  for (std::uint64_t bits = min_bits; bits <= max_bits; bits += 2) {
    const std::uint64_t range = 1ULL << bits;
    double mops[5] = {};
    {
      sv::baselines::UnsortedVectorMap<std::uint64_t, std::uint64_t> m;
      mops[0] = run_cell(m, range, seconds, trials);
    }
    {
      sv::baselines::SortedVectorMap<std::uint64_t, std::uint64_t> m;
      mops[1] = run_cell(m, range, seconds, trials);
    }
    {
      sv::baselines::StdMapAdapter<std::uint64_t, std::uint64_t> m;
      mops[2] = run_cell(m, range, seconds, trials);
    }
    {
      sv::baselines::SequentialSkipList<std::uint64_t, std::uint64_t> m;
      mops[3] = run_cell(m, range, seconds, trials);
    }
    {
      sv::core::SkipVectorSeq<std::uint64_t, std::uint64_t> m(
          sv::core::Config::for_elements(range / 2));
      mops[4] = run_cell(m, range, seconds, trials);
    }
    std::printf("  2^%-4llu %16.3f %16.3f %16.3f %16.3f %16.3f\n",
                static_cast<unsigned long long>(bits), mops[0], mops[1],
                mops[2], mops[3], mops[4]);
    report_row("unsorted_vec", bits, mops[0]);
    report_row("sorted_vec", bits, mops[1]);
    report_row("std_map", bits, mops[2]);
    report_row("seq_skiplist", bits, mops[3]);
    report_row("skip_vector", bits, mops[4]);
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("fig1_sequential", argc, argv, run);
}
