// Tests for the TPC-C-lite workload (dbx/tpcc.h) over sv::txn: key codec
// round-trips, config validation, deterministic single-threaded runs, and
// the 8-thread contended mix with the conservation + order-sequence
// invariants checked after quiescing -- the acceptance bar for multi-key
// read-modify-write atomicity through the transaction layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/skip_vector.h"
#include "dbx/tpcc.h"

namespace sv::dbx::tpcc {
namespace {

using Map = core::SkipVector<std::uint64_t, std::uint64_t>;

TEST(TpccKeys, CodecRoundTrips) {
  const std::uint64_t k = make_key(Table::kCustomerBalance, 3, 7, 41);
  const KeyParts p = split_key(k);
  EXPECT_EQ(p.table, Table::kCustomerBalance);
  EXPECT_EQ(p.warehouse, 3u);
  EXPECT_EQ(p.district, 7u);
  EXPECT_EQ(p.slot, 41u);
  // Distinct tables map the same (w, d, slot) to distinct keys.
  EXPECT_NE(make_key(Table::kStock, 3, 7, 41), k);
  // Order-line slots keep (oid, line) pairs distinct.
  EXPECT_NE(order_line_slot(5, 1), order_line_slot(5, 2));
  EXPECT_NE(order_line_slot(5, 1), order_line_slot(6, 1));
}

TEST(TpccConfigCheck, RejectsOutOfRange) {
  TpccConfig cfg;
  std::string err;
  EXPECT_TRUE(cfg.validate(&err)) << err;
  cfg.warehouses = 0;
  EXPECT_FALSE(cfg.validate(&err));
  cfg = TpccConfig{};
  cfg.districts_per_warehouse = 300;  // exceeds the 8-bit district field
  EXPECT_FALSE(cfg.validate(&err));
  cfg = TpccConfig{};
  cfg.max_order_lines = 65;  // exceeds the engine's stack line buffer
  EXPECT_FALSE(cfg.validate(&err));
  cfg = TpccConfig{};
  cfg.payment_fraction = 1.5;
  EXPECT_FALSE(cfg.validate(&err));
}

TEST(TpccSingleThread, LoadSatisfiesInvariants) {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.items = 128;
  Map m(core::Config::for_elements(1 << 14));
  TpccLite<Map> db(cfg, m);
  db.load();
  std::string err;
  EXPECT_TRUE(db.check_invariants(&err)) << err;
}

TEST(TpccSingleThread, MixedRunKeepsInvariantsNoAborts) {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 32;
  cfg.items = 128;
  Map m(core::Config::for_elements(1 << 14));
  TpccLite<Map> db(cfg, m);
  db.load();

  TpccRandom rnd(cfg, /*seed=*/1);
  TpccStats st;
  for (int i = 0; i < 2000; ++i) db.run_one(rnd, &st);

  EXPECT_EQ(st.commits, 2000u);
  EXPECT_EQ(st.aborts, 0u);  // single thread: NO_WAIT never conflicts
  EXPECT_GT(st.payments, 0u);
  EXPECT_GT(st.new_orders, 0u);
  std::string err;
  EXPECT_TRUE(db.check_invariants(&err)) << err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

TEST(TpccSingleThread, PaymentMovesExactAmounts) {
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 1;
  cfg.customers_per_district = 4;
  cfg.items = 16;
  Map m(core::Config::for_elements(1 << 10));
  TpccLite<Map> db(cfg, m);
  db.load();

  TpccStats st;
  db.payment(0, 0, 2, /*amount=*/125, &st);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(m.lookup(make_key(Table::kWarehouseYtd, 0, 0, 0)),
            std::optional<std::uint64_t>(125));
  EXPECT_EQ(m.lookup(make_key(Table::kDistrictYtd, 0, 0, 0)),
            std::optional<std::uint64_t>(125));
  EXPECT_EQ(m.lookup(make_key(Table::kCustomerBalance, 0, 0, 2)),
            std::optional<std::uint64_t>(cfg.initial_balance - 250));
  std::string err;
  EXPECT_TRUE(db.check_invariants(&err)) << err;
}

TEST(TpccSingleThread, NewOrderAdvancesSequenceAndWritesRows) {
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 1;
  cfg.customers_per_district = 4;
  cfg.items = 16;
  Map m(core::Config::for_elements(1 << 10));
  TpccLite<Map> db(cfg, m);
  db.load();

  const std::uint32_t items[] = {3, 5, 3};  // repeated item: RMW chains
  const std::uint32_t qtys[] = {2, 1, 4};
  TpccStats st;
  db.new_order(0, 0, items, qtys, 3, &st);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(m.lookup(make_key(Table::kDistrictNextOid, 0, 0, 0)),
            std::optional<std::uint64_t>(cfg.initial_next_oid + 1));
  // Stock for the repeated item decremented by BOTH its quantities.
  EXPECT_EQ(m.lookup(make_key(Table::kStock, 0, 0, 3)),
            std::optional<std::uint64_t>(cfg.initial_stock - 2 - 4));
  EXPECT_EQ(m.lookup(make_key(Table::kStock, 0, 0, 5)),
            std::optional<std::uint64_t>(cfg.initial_stock - 1));
  const auto order = m.lookup(
      make_key(Table::kOrder, 0, 0, cfg.initial_next_oid));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, 3u);  // line count
  std::string err;
  EXPECT_TRUE(db.check_invariants(&err)) << err;
}

// The acceptance-criteria run: 8 threads on a small, hot key space (every
// district sequence is contended), invariants green after quiescing and a
// non-trivial committed count. Conservation catches torn payments;
// sequence checks catch lost new-order increments.
TEST(TpccConcurrent, EightThreadMixConservesInvariants) {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 2;  // 4 hot district sequences
  cfg.customers_per_district = 16;
  cfg.items = 64;
  cfg.zipf_theta = 0.9;
  Map m(core::Config::for_elements(1 << 16));
  TpccLite<Map> db(cfg, m);
  db.load();

  constexpr unsigned kThreads = 8;
  constexpr int kTxnsPerThread = 3000;
  std::vector<TpccStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TpccRandom rnd(cfg, /*seed=*/1000 + t);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        db.run_one(rnd, &per_thread[t]);
      }
    });
  }
  for (auto& t : threads) t.join();

  TpccStats total;
  for (const auto& st : per_thread) total += st;
  EXPECT_EQ(total.commits, kThreads * std::uint64_t{kTxnsPerThread});
  EXPECT_GT(total.new_orders, 0u);
  EXPECT_GT(total.payments, 0u);
  std::string err;
  EXPECT_TRUE(db.check_invariants(&err)) << err;
  EXPECT_TRUE(m.validate(&err)) << err;

  if (stats::kEnabled) {
    const auto snap = m.stats_registry().snapshot();
    EXPECT_EQ(snap[stats::Counter::kTxnCommits],
              kThreads * std::uint64_t{kTxnsPerThread});
  }
}

}  // namespace
}  // namespace sv::dbx::tpcc
