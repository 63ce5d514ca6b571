// Figure 6: YCSB throughput on the DBx1000-style OLTP engine with the
// ordered index under test: SV-HP vs USL-HP (no index chunking) vs SL-HP
// (no chunking at all). Each thread runs a fixed number of transactions of
// 16 accesses (90% reads), keys Zipfian with theta in {0.1, 0.6, 0.9}.
//
// Expected shape (paper §V-A): chunking in both layers gives SV-HP ~2x over
// USL-HP and SL-HP at low/medium skew; at theta=0.9 all contenders degrade
// as the concurrency-control layer (row latches) becomes the bottleneck.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "common/timer.h"
#include "core/skip_vector.h"
#include "dbx/database.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::Options;
using sv::dbx::Row;
using Index = sv::core::SkipVector<std::uint64_t, Row*>;

double g_scan_fraction = 0.0;
std::uint64_t g_scan_length = 100;
double g_read_fraction = 0.9;

double run_cell(const sv::core::Config& index_cfg, std::uint64_t rows,
                double theta, unsigned threads, std::uint64_t txns_per_thread,
                sv::dbx::TxnStats* total_stats) {
  sv::dbx::YcsbConfig cfg;
  cfg.table_rows = rows;
  cfg.zipf_theta = theta;
  cfg.scan_fraction = g_scan_fraction;
  cfg.scan_length = static_cast<std::uint32_t>(g_scan_length);
  cfg.read_fraction = g_read_fraction;
  sv::dbx::Database<Index> db(cfg, index_cfg);

  std::vector<sv::dbx::TxnStats> stats(threads);
  std::vector<std::thread> workers;
  sv::WallTimer timer;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sv::dbx::YcsbGenerator gen(cfg, 7777 + t);
      db.run_worker(gen, txns_per_thread, &stats[t]);
    });
  }
  for (auto& w : workers) w.join();
  const double secs = timer.elapsed_seconds();
  sv::dbx::TxnStats sum;
  for (const auto& s : stats) sum += s;
  if (total_stats != nullptr) *total_stats += sum;
  return static_cast<double>(sum.commits) / secs / 1e6;  // Mtxn/s
}

}  // namespace

static int run(const Options& opt) {
  opt.reject_unknown({"rows", "scans", "scan-len", "workload", "txns",
                      "threads", "thetas", "json"});
  if (opt.help_requested()) {
    std::printf(
        "fig6_ycsb: YCSB/DBx1000-style index throughput (SV vs USL vs SL)\n"
        "  --rows=N         table rows (default 2^18; paper 24M)\n"
        "  --txns=N         transactions per thread (default 10000;"
        " paper 100K)\n"
        "  --threads=A,B,.. thread counts (default 1,2,4)\n"
        "  --thetas=list    Zipf thetas x100 (default 10,60,90)\n"
        "  --scans=F        fraction of accesses that are YCSB-E range"
        " scans (default 0)\n"
        "  --scan-len=N     rows per scan (default 100)\n"
        "  --workload=W     YCSB preset: a (50%% upd), b (5%% upd),"
        " c (read-only), e (scans); overrides read/scan fractions\n"
        "  --json=PATH      also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const std::uint64_t rows = opt.u64("rows", 1ULL << 18);
  g_scan_fraction = opt.f64("scans", 0.0);
  g_scan_length = opt.u64("scan-len", 100);
  double read_fraction = 0.9;  // the paper's Fig. 6 mix
  const std::string preset = opt.str("workload", "");
  if (preset == "a") {
    read_fraction = 0.5;
  } else if (preset == "b") {
    read_fraction = 0.95;
  } else if (preset == "c") {
    read_fraction = 1.0;
  } else if (preset == "e") {
    read_fraction = 1.0;
    g_scan_fraction = 0.95;
  } else if (!preset.empty()) {
    std::fprintf(stderr, "unknown --workload=%s\n", preset.c_str());
    return 2;
  }
  g_read_fraction = read_fraction;
  const std::uint64_t txns = opt.u64("txns", 10000);
  const auto threads_list = opt.threads_list({1, 2, 4});
  const auto thetas = opt.u64_list("thetas", {10, 60, 90});
  const std::string json_path = opt.str("json", "");

  BenchReport report("fig6_ycsb");
  report.config().set("rows", rows);
  report.config().set("txns_per_thread", txns);
  report.config().set("read_fraction", read_fraction);
  report.config().set("scan_fraction", g_scan_fraction);
  const auto report_row = [&](const char* name, double theta, unsigned threads,
                              double mtxn, double abort_rate) {
    JsonValue& row = report.add_result(name);
    JsonValue& params = row.set("params", JsonValue::object());
    params.set("zipf_theta", theta);
    params.set("threads", threads);
    JsonValue& metrics = row.set("metrics", JsonValue::object());
    metrics.set("mtxn_per_s", mtxn);
    if (abort_rate >= 0) metrics.set("abort_rate", abort_rate);
  };

  std::printf("== Figure 6: YCSB DBx1000-style throughput (Mtxn/s) ==\n");
  std::printf("   rows=%llu, txns/thread=%llu, 16 accesses/txn, 90%% reads\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(txns));

  const auto sv_cfg = sv::core::Config::for_elements(rows);
  const auto usl_cfg = sv::core::Config::usl_for_elements(rows);
  const auto sl_cfg = sv::core::Config::sl_for_elements(rows);

  for (const auto theta100 : thetas) {
    const double theta = static_cast<double>(theta100) / 100.0;
    std::printf("\n-- zipf theta = %.2f --\n", theta);
    std::printf("  %-10s %12s %12s %12s %12s\n", "threads", "SV-HP",
                "USL-HP", "SL-HP", "abort%%SV");
    for (const unsigned threads : threads_list) {
      sv::dbx::TxnStats sv_stats;
      const double sv = run_cell(sv_cfg, rows, theta, threads, txns, &sv_stats);
      const double usl = run_cell(usl_cfg, rows, theta, threads, txns, nullptr);
      const double sl = run_cell(sl_cfg, rows, theta, threads, txns, nullptr);
      std::printf("  %-10u %12.4f %12.4f %12.4f %11.2f%%\n", threads, sv,
                  usl, sl, 100.0 * sv_stats.abort_rate());
      report_row("SV-HP", theta, threads, sv, sv_stats.abort_rate());
      report_row("USL-HP", theta, threads, usl, -1);
      report_row("SL-HP", theta, threads, sl, -1);
    }
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("fig6_ycsb", argc, argv, run);
}
