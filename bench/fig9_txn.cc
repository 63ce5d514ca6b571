// Figure 9: throughput of the first-class transaction layer (sv::txn) --
// the workload the row-latch Fig. 6 engine cannot express, multi-key
// read-modify-write transactions over the map itself.
//
// Two sweeps:
//   - YCSB-T: the Fig. 6 transaction shape (16 accesses, Zipfian keys)
//     executed through sv::txn -- optimistic reads, buffered writes, one
//     commit-time NO_WAIT 2PL pass through the shared chunk lock manager.
//     Reported per (theta, threads) with the observed abort rate.
//   - TPC-C-lite: the new-order/payment mix (dbx/tpcc.h) at a fixed small
//     warehouse count so the district sequences stay hot. Conservation and
//     order-sequence invariants are re-checked after every cell; a
//     violation exits nonzero (a throughput number from a torn commit is
//     worse than no number).
//
// Expected shape: single-thread abort rates are 0 (NO_WAIT cannot
// conflict with itself), and single-thread YCSB-T throughput stays within
// 2x from 4K to 256K rows: the lock pass reaches each key by a step of at
// most two chunks or a no-wait re-seek through the index, so a commit
// costs O(keys * log n), not O(key span) (the nightly lane pins this).
// Under threads a YCSB-T abort needs a real chunk conflict -- another
// transaction holding a floor chunk this one needs (chunk granularity, so
// rows sharing a chunk conflict) -- or briefly a node on its seek path;
// locked chunks a commit only steps past cost a re-seek. YCSB-T aborts
// therefore track key skew, not the distance between keys. TPC-C-lite is
// different: its order inserts commit through the lock manager, which
// never gives them index entries, so each commit walks long orphan runs
// that other new-orders are locking, and those walks both slow as orders
// accumulate and abort on chunks the transaction does not need -- see
// docs/TRANSACTIONS.md.
#include <cstdio>
#include <thread>
#include <vector>

#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "common/timer.h"
#include "core/skip_vector.h"
#include "dbx/tpcc.h"
#include "dbx/txn.h"
#include "dbx/ycsb.h"

namespace {

using sv::benchutil::BenchReport;
using sv::benchutil::JsonValue;
using sv::benchutil::Options;
using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;

double run_ycsb_cell(std::uint64_t rows, double theta, unsigned threads,
                     std::uint64_t txns_per_thread, double read_fraction,
                     sv::dbx::TxnStats* total_stats) {
  sv::dbx::YcsbConfig cfg;
  cfg.table_rows = rows;
  cfg.zipf_theta = theta;
  cfg.read_fraction = read_fraction;
  Map map(sv::core::Config::for_elements(rows));
  for (std::uint64_t k = 0; k < rows; ++k) map.insert(k, 0);

  std::vector<sv::dbx::TxnStats> stats(threads);
  std::vector<std::thread> workers;
  sv::WallTimer timer;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sv::dbx::YcsbGenerator gen(cfg, 7777 + t);
      sv::dbx::TxnRequest req;
      for (std::uint64_t n = 0; n < txns_per_thread; ++n) {
        gen.next(&req);
        sv::dbx::run_txn_sv_to_completion(map, req, &stats[t]);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs = timer.elapsed_seconds();
  sv::dbx::TxnStats sum;
  for (const auto& s : stats) sum += s;
  if (total_stats != nullptr) *total_stats += sum;
  return static_cast<double>(sum.commits) / secs / 1e6;  // Mtxn/s
}

double run_tpcc_cell(std::uint32_t warehouses, unsigned threads,
                     std::uint64_t txns_per_thread,
                     sv::dbx::tpcc::TpccStats* total_stats) {
  namespace tpcc = sv::dbx::tpcc;
  tpcc::TpccConfig cfg;
  cfg.warehouses = warehouses;
  Map map(sv::core::Config::for_elements(1 << 18));
  tpcc::TpccLite<Map> db(cfg, map);
  db.load();

  std::vector<tpcc::TpccStats> stats(threads);
  std::vector<std::thread> workers;
  sv::WallTimer timer;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      tpcc::TpccRandom rnd(cfg, 9999 + t);
      for (std::uint64_t n = 0; n < txns_per_thread; ++n) {
        db.run_one(rnd, &stats[t]);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs = timer.elapsed_seconds();

  std::string err;
  if (!db.check_invariants(&err)) {
    std::fprintf(stderr, "TPC-C invariant violated (w=%u, threads=%u): %s\n",
                 warehouses, threads, err.c_str());
    std::exit(1);
  }
  tpcc::TpccStats sum;
  for (const auto& s : stats) sum += s;
  if (total_stats != nullptr) *total_stats += sum;
  return static_cast<double>(sum.commits) / secs / 1e6;  // Mtxn/s
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  if (!opt.only_known("fig9_txn",
                       {"rows", "txns", "read-frac", "threads", "thetas",
                        "warehouses", "json"})) {
    return 2;
  }
  if (opt.help_requested()) {
    std::printf(
        "fig9_txn: sv::txn transaction throughput (YCSB-T + TPC-C-lite)\n"
        "  --rows=N         YCSB table rows (default 2^18)\n"
        "  --txns=N         transactions per thread (default 10000)\n"
        "  --threads=A,B,.. thread counts (default 1,2,4)\n"
        "  --thetas=list    YCSB Zipf thetas x100 (default 10,60,90)\n"
        "  --read-frac=F    YCSB read fraction (default 0.9)\n"
        "  --warehouses=A,B TPC-C warehouse counts (default 1,4)\n"
        "  --json=PATH      also write sv-bench JSON ('-' = stdout)\n");
    return 0;
  }
  const std::uint64_t rows = opt.u64("rows", 1ULL << 18);
  const std::uint64_t txns = opt.u64("txns", 10000);
  const double read_fraction = opt.f64("read-frac", 0.9);
  const auto threads_list = opt.u64_list("threads", {1, 2, 4});
  const auto thetas = opt.u64_list("thetas", {10, 60, 90});
  const auto warehouses_list = opt.u64_list("warehouses", {1, 4});
  const std::string json_path = opt.str("json", "");

  BenchReport report("fig9_txn");
  report.config().set("rows", rows);
  report.config().set("txns_per_thread", txns);
  report.config().set("read_fraction", read_fraction);

  std::printf("== Figure 9: sv::txn transaction throughput (Mtxn/s) ==\n");
  std::printf("   rows=%llu, txns/thread=%llu\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(txns));

  for (const auto theta100 : thetas) {
    const double theta = static_cast<double>(theta100) / 100.0;
    std::printf("\n-- YCSB-T, zipf theta = %.2f --\n", theta);
    std::printf("  %-10s %12s %12s\n", "threads", "SV-Txn", "abort%");
    for (const auto t64 : threads_list) {
      const auto threads = static_cast<unsigned>(t64);
      sv::dbx::TxnStats st;
      const double mtxn =
          run_ycsb_cell(rows, theta, threads, txns, read_fraction, &st);
      std::printf("  %-10u %12.4f %11.2f%%\n", threads, mtxn,
                  100.0 * st.abort_rate());
      JsonValue& row = report.add_result("YCSB-T");
      JsonValue& params = row.set("params", JsonValue::object());
      params.set("zipf_theta", theta);
      params.set("threads", threads);
      JsonValue& metrics = row.set("metrics", JsonValue::object());
      metrics.set("mtxn_per_s", mtxn);
      metrics.set("abort_rate", st.abort_rate());
    }
  }

  for (const auto w64 : warehouses_list) {
    const auto warehouses = static_cast<std::uint32_t>(w64);
    std::printf("\n-- TPC-C-lite, warehouses = %u --\n", warehouses);
    std::printf("  %-10s %12s %12s\n", "threads", "SV-Txn", "abort%");
    for (const auto t64 : threads_list) {
      const auto threads = static_cast<unsigned>(t64);
      sv::dbx::tpcc::TpccStats st;
      const double mtxn = run_tpcc_cell(warehouses, threads, txns, &st);
      std::printf("  %-10u %12.4f %11.2f%%\n", threads, mtxn,
                  100.0 * st.abort_rate());
      JsonValue& row = report.add_result("TPCC-lite");
      JsonValue& params = row.set("params", JsonValue::object());
      params.set("warehouses", warehouses);
      params.set("threads", threads);
      JsonValue& metrics = row.set("metrics", JsonValue::object());
      metrics.set("mtxn_per_s", mtxn);
      metrics.set("abort_rate", st.abort_rate());
      metrics.set("new_order_fraction",
                  st.commits > 0 ? static_cast<double>(st.new_orders) /
                                       static_cast<double>(st.commits)
                                 : 0.0);
    }
  }
  if (!json_path.empty() && !report.write(json_path)) return 1;
  return 0;
}
