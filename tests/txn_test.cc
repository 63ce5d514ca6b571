// Tests for the sv::txn transaction layer (txn/txn.h, txn/lock_mgr.h):
// atomic multi-key commits through the shared chunk-lock manager,
// read-your-writes, undo-free aborts, commit-time read validation, the
// towered-remove demote path, the run() retry helper, and the transaction
// counters. Concurrency tests pin the serializability story: lost-update
// freedom for RMW increments and conserved totals for multi-key transfers.
// Lock-pass tests pin which chunks may abort a commit, that its cost grows
// with the number of keys rather than their span, that a successor another
// commit is rewriting never counts as covering a key, and (by fault
// injection) that a successor merged away mid-step is never entered.
// Pinned-read tests pin the commit fast path: unchanged chunks lock from
// the word their read saw with no seek, changed or retired ones fall back
// to the value check, and reads without a free pin slot stay correct.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/skip_vector.h"
#include "core/skip_vector_epoch.h"
#include "dbx/ycsb.h"
#include "debug/fault_inject.h"
#include "txn/txn.h"

namespace sv::core {
namespace {

using Map = SkipVector<std::uint64_t, std::uint64_t>;
using Txn = txn::Txn<Map>;
using txn::TxnResult;

Config Tiny() {
  Config c;
  c.layer_count = 4;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

std::uint64_t counter(const Map& m, stats::Counter c) {
  return m.stats_registry().snapshot()[c];
}

// ---- Single-threaded semantics ---------------------------------------------

TEST(Txn, EmptyTxnCommits) {
  Map m(Config::for_elements(64));
  Txn t(m);
  EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  if (stats::kEnabled) {
    EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), 1u);
  }
}

TEST(Txn, MultiKeyCommitIsAtomicAndVisible) {
  Map m(Config::for_elements(1024));
  ASSERT_TRUE(m.insert(5, 50));

  Txn t(m);
  t.put(1, 10);
  t.put(9, 90);
  t.remove(5);
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);

  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.lookup(9), std::optional<std::uint64_t>(90));
  EXPECT_FALSE(m.lookup(5).has_value());
  // applied flags: both puts inserted fresh keys, the remove hit.
  ASSERT_EQ(t.writes().size(), 3u);
  EXPECT_TRUE(t.writes()[0].applied);
  EXPECT_TRUE(t.writes()[1].applied);
  EXPECT_TRUE(t.writes()[2].applied);
  if (stats::kEnabled) {
    EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), 1u);
  }
  EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 0u);
}

TEST(Txn, ReadYourWrites) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(1, 100));

  Txn t(m);
  EXPECT_EQ(t.get(1), std::optional<std::uint64_t>(100));  // live read
  t.put(1, 111);
  EXPECT_EQ(t.get(1), std::optional<std::uint64_t>(111));  // buffered write
  t.remove(1);
  EXPECT_FALSE(t.get(1).has_value());  // buffered remove
  t.put(2, 22);
  EXPECT_EQ(t.get(2), std::optional<std::uint64_t>(22));  // never in the map
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_FALSE(m.lookup(1).has_value());
  EXPECT_EQ(m.lookup(2), std::optional<std::uint64_t>(22));
}

TEST(Txn, RepeatedReadReturnsFirstObservation) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(7, 70));
  Txn t(m);
  EXPECT_EQ(t.get(7), std::optional<std::uint64_t>(70));
  ASSERT_TRUE(m.update(7, 71));  // external writer between the reads
  // The txn's view stays at the first observation (that is what commit
  // validates), so the commit must now fail validation.
  EXPECT_EQ(t.get(7), std::optional<std::uint64_t>(70));
  EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
}

TEST(Txn, AbortIsUndoFreeAndInvisible) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(3, 30));

  Txn t(m);
  t.put(3, 999);
  t.put(4, 40);
  t.remove(3);
  t.abort();
  EXPECT_EQ(m.lookup(3), std::optional<std::uint64_t>(30));
  EXPECT_FALSE(m.lookup(4).has_value());
  EXPECT_TRUE(t.reads().empty());
  EXPECT_TRUE(t.writes().empty());

  // The handle is reusable as a fresh transaction after abort().
  t.put(4, 44);
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_EQ(m.lookup(4), std::optional<std::uint64_t>(44));
}

TEST(Txn, ValidationFailLeavesMapUntouched) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(10, 1));

  Txn t(m);
  ASSERT_EQ(t.get(10), std::optional<std::uint64_t>(1));
  t.put(20, 2);  // write to a DIFFERENT key than the stale read
  ASSERT_TRUE(m.update(10, 5));  // interleaved external writer
  EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  // The failed commit applied nothing.
  EXPECT_FALSE(m.lookup(20).has_value());
  EXPECT_EQ(m.lookup(10), std::optional<std::uint64_t>(5));
  if (stats::kEnabled) {
    EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 1u);
  }
  EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), 0u);
}

TEST(Txn, ValidationCoversPresenceBothWays) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(1, 11));
  {
    // Read-present, then externally removed: validation must fail.
    Txn t(m);
    ASSERT_TRUE(t.get(1).has_value());
    ASSERT_TRUE(m.remove(1));
    EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  }
  {
    // Read-absent, then externally inserted: validation must fail.
    Txn t(m);
    ASSERT_FALSE(t.get(2).has_value());
    ASSERT_TRUE(m.insert(2, 22));
    EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  }
  {
    // Unchanged reads validate: read-only txn commits.
    Txn t(m);
    ASSERT_TRUE(t.get(2).has_value());
    ASSERT_FALSE(t.get(3).has_value());
    EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  }
}

TEST(Txn, ScanIsReadCommitted) {
  Map m(Config::for_elements(256));
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(m.insert(k, k * 10));
  Txn t(m);
  std::uint64_t sum = 0;
  const std::size_t n =
      t.scan(0, 9, [&](std::uint64_t, std::uint64_t v) { sum += v; });
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(sum, 450u);
  EXPECT_EQ(t.commit(), TxnResult::kCommitted);
}

TEST(Txn, SameKeyIntentsApplyInSubmissionOrder) {
  Map m(Config::for_elements(64));
  Txn t(m);
  t.put(1, 10);
  t.remove(1);
  t.put(1, 30);  // last write wins, like apply_batch
  ASSERT_EQ(t.commit(), TxnResult::kCommitted);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(30));
}

// Every key removed through its own transaction, on a tiny-chunk map where
// many keys are towered chunk minima: exercises the internal kNeedDemote
// retry (demote, then re-run the commit pass) end to end.
TEST(Txn, ToweredRemovesCommitViaDemote) {
  Map m(Tiny());
  constexpr std::uint64_t kN = 512;
  for (std::uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(m.insert(k, k));
  for (std::uint64_t k = 0; k < kN; ++k) {
    Txn t(m);
    t.remove(k);
    ASSERT_EQ(t.commit(), TxnResult::kCommitted) << "key " << k;
  }
  EXPECT_EQ(m.size_approx(), 0u);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// ---- run() helper -----------------------------------------------------------

TEST(TxnRun, BodyAbortReturnsFalseWithoutRetry) {
  Map m(Config::for_elements(64));
  int calls = 0;
  const bool ok = txn::run(m, [&](Txn& t) {
    ++calls;
    t.put(1, 1);
    return false;  // user abort
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(m.lookup(1).has_value());
}

TEST(TxnRun, CommitsAndReturnsTrue) {
  Map m(Config::for_elements(64));
  const bool ok = txn::run(m, [](Txn& t) {
    t.put(1, 10);
    t.put(2, 20);
    return true;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.lookup(2), std::optional<std::uint64_t>(20));
}

// ---- Concurrency ------------------------------------------------------------

// Lost-update freedom: N threads x M transactional increments of one hot
// key must sum exactly (optimistic reads + commit validation make the RMW
// serializable; retries come from txn::run).
TEST(TxnConcurrent, HotKeyRmwLosesNoUpdates) {
  Map m(Config::for_elements(64));
  ASSERT_TRUE(m.insert(0, 0));
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;

  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        ASSERT_TRUE(txn::run(m, [](Txn& t) {
          const auto v = t.get(0);
          t.put(0, *v + 1);
          return true;
        }));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(m.lookup(0), std::optional<std::uint64_t>(kThreads * kPerThread));
  if (stats::kEnabled) {
    EXPECT_EQ(counter(m, stats::Counter::kTxnCommits), kThreads * kPerThread);
  }
  // Aborts and retries line up: every abort was retried by run().
  EXPECT_EQ(counter(m, stats::Counter::kTxnAborts),
            counter(m, stats::Counter::kTxnRetries));
}

// Conserved-total transfers: concurrent two-key transfer transactions plus
// transactional auditors summing every account read-serializably. Any lost
// update, partial commit, or stale-read commit breaks the total.
TEST(TxnConcurrent, TransfersConserveTotal) {
  constexpr std::uint64_t kAccounts = 64;
  constexpr std::uint64_t kInitial = 1000;
  constexpr unsigned kWriters = 6;
  constexpr unsigned kAuditors = 2;
  constexpr std::uint64_t kTransfersPerWriter = 3000;

  Map m(Config::for_elements(kAccounts));
  for (std::uint64_t k = 0; k < kAccounts; ++k) {
    ASSERT_TRUE(m.insert(k, kInitial));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> audits{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      Xoshiro256 rng(i + 1);
      for (std::uint64_t n = 0; n < kTransfersPerWriter; ++n) {
        const std::uint64_t a = rng.next_below(kAccounts);
        std::uint64_t b = rng.next_below(kAccounts);
        if (b == a) b = (b + 1) % kAccounts;
        const std::uint64_t amount = rng.next_below(10) + 1;
        ASSERT_TRUE(txn::run(m, [&](Txn& t) {
          const auto va = t.get(a);
          const auto vb = t.get(b);
          if (*va < amount) return true;  // commit the no-op reads
          t.put(a, *va - amount);
          t.put(b, *vb + amount);
          return true;
        }));
      }
    });
  }
  for (unsigned i = 0; i < kAuditors; ++i) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t sum = 0;
        const bool ok = txn::run(m, [&](Txn& t) {
          sum = 0;
          for (std::uint64_t k = 0; k < kAccounts; ++k) sum += *t.get(k);
          return true;
        });
        ASSERT_TRUE(ok);
        ASSERT_EQ(sum, kAccounts * kInitial);  // serializable read of all
        audits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (unsigned i = 0; i < kWriters; ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (unsigned i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_GT(audits.load(), 0u);
  std::uint64_t final_sum = 0;
  m.for_each([&](std::uint64_t, std::uint64_t v) { final_sum += v; });
  EXPECT_EQ(final_sum, kAccounts * kInitial);
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// Transactions and plain batches share one lock manager: mixing them on
// the same keys must preserve batch atomicity and txn serializability.
TEST(TxnConcurrent, TxnsAndBatchesInterleave) {
  constexpr std::uint64_t kKeys = 32;
  Map m(Config::for_elements(kKeys));
  for (std::uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(m.insert(k, 0));

  std::atomic<bool> stop{false};
  std::thread batcher([&] {
    Xoshiro256 rng(42);
    std::vector<Map::BatchOp> ops;
    while (!stop.load(std::memory_order_relaxed)) {
      ops.clear();
      // Even-aligned pairs so no two batches overlap on one key: the
      // invariant "key 2i == key 2i+1" survives any batch interleaving.
      const std::uint64_t base = rng.next_below(kKeys / 2) * 2;
      const std::uint64_t v = rng.next();
      ops.push_back(Map::BatchOp::put(base, v));
      ops.push_back(Map::BatchOp::put(base + 1, v));
      m.apply_batch(ops);
    }
  });
  std::thread verifier([&] {
    Xoshiro256 rng(7);
    for (int n = 0; n < 20000; ++n) {
      const std::uint64_t base = rng.next_below(kKeys / 2) * 2;
      std::uint64_t va = 0, vb = 0;
      ASSERT_TRUE(txn::run(m, [&](Txn& t) {
        va = *t.get(base);
        vb = *t.get(base + 1);
        return true;
      }));
      ASSERT_EQ(va, vb) << "torn batch visible at " << base;
    }
  });
  verifier.join();
  stop.store(true, std::memory_order_relaxed);
  batcher.join();
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// ---- Snapshots --------------------------------------------------------------

// A wait-free snapshot pinned before a transactional commit must not see
// the commit (transactions ride the same preserve-pre-image MVCC path as
// batches).
TEST(TxnSnapshots, PinnedSnapshotInvisibleToLaterTxn) {
  Map m(Config::for_elements(256));
  for (std::uint64_t k = 0; k < 16; ++k) ASSERT_TRUE(m.insert(k, 1));

  auto view = m.snapshot_at();
  ASSERT_TRUE(txn::run(m, [](Txn& t) {
    for (std::uint64_t k = 0; k < 16; ++k) t.put(k, 2);
    t.put(100, 2);
    return true;
  }));

  std::uint64_t snap_sum = 0, snap_n = 0;
  m.range_for_each_at(view, 0, 200, [&](std::uint64_t, std::uint64_t v) {
    snap_sum += v;
    ++snap_n;
  });
  EXPECT_EQ(snap_n, 16u);   // key 100 did not exist at the pin
  EXPECT_EQ(snap_sum, 16u);  // all pre-commit values
  std::uint64_t live_sum = 0;
  m.range_for_each(0, 200, [&](std::uint64_t, std::uint64_t v) {
    live_sum += v;
  });
  EXPECT_EQ(live_sum, 34u);  // 16 * 2 + 2
}

// ---- Lock pass -------------------------------------------------------------

using MA = txn::MapAccess<Map>;
using Chunk = MA::Node;

// Write-locks k's floor chunk the way another pass would hold it.
Chunk* HoldFloor(Map& m, std::uint64_t k) {
  txn::OpScope<Map> scope(m);
  Chunk* c = nullptr;
  EXPECT_EQ(MA::lock_floor_descent(m, scope.ctx(), {}, k, &c),
            MA::Seek::kLocked);
  scope.ctx().drop_all();
  return c;
}

// A lock on a chunk strictly between a transaction's keys -- whether the
// step from the last held lock meets it or a re-seek skips it -- must not
// abort the commit; a lock on the floor chunk of an accessed key must.
TEST(TxnLockPass, OnlyNeededChunksAbort) {
  constexpr std::uint64_t kRows = 4096;
  Map m(Config::for_elements(kRows));
  for (std::uint64_t k = 0; k < kRows; ++k) ASSERT_TRUE(m.insert(k, 0));
  constexpr std::uint64_t kFirst = 10;
  constexpr std::uint64_t kLast = 4000;

  // The chunk right after kFirst's floor, then one far from both keys.
  Chunk* first_floor = HoldFloor(m, kFirst);
  ASSERT_NE(first_floor, nullptr);
  Chunk* after = first_floor->next.load(std::memory_order_acquire);
  ASSERT_NE(after, nullptr);
  const std::uint64_t next_min = MA::min_key(m, after);
  first_floor->lock.release();

  for (const std::uint64_t between : {next_min, kRows / 2}) {
    ASSERT_GT(between, kFirst);
    ASSERT_LT(between, kLast);
    Chunk* held = HoldFloor(m, between);
    ASSERT_NE(held, nullptr);
    ASSERT_FALSE(MA::covers(m, held, kLast)) << "keys must span chunks";
    {
      Txn t(m);
      ASSERT_EQ(t.get(kFirst), std::optional<std::uint64_t>(0));
      t.put(kLast, between);
      EXPECT_EQ(t.commit(), TxnResult::kCommitted) << "held " << between;
    }
    {
      // The held chunk is now needed: NO_WAIT must give up.
      Txn t(m);
      ASSERT_EQ(t.get(kFirst), std::optional<std::uint64_t>(0));
      t.put(between, 1);
      t.put(kLast, 1);
      EXPECT_EQ(t.commit(), TxnResult::kLockConflict) << "held " << between;
    }
    held->lock.release();
    EXPECT_EQ(m.lookup(kLast), std::optional<std::uint64_t>(between));
    EXPECT_EQ(m.lookup(between), std::optional<std::uint64_t>(0));
  }
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// Sequential loads leave runs of orphan chunks (capacity splits with no
// index entry) that a re-seek must walk. Spread 16-key transactions must
// still cross only a bounded number of chunks per key, independent of the
// table size (a walk from key to key crosses ~140 per key at 2^16 rows),
// and single-threaded they never conflict: every pass commits first time.
TEST(TxnLockPass, HopsPerKeyIndependentOfTableSize) {
  for (const std::uint64_t rows : {std::uint64_t{1} << 16,
                                   std::uint64_t{1} << 18}) {
    Map m(Config::for_elements(rows));
    for (std::uint64_t k = 0; k < rows; ++k) ASSERT_TRUE(m.insert(k, 0));
    dbx::YcsbConfig cfg;
    cfg.table_rows = rows;
    cfg.zipf_theta = 0.1;
    cfg.accesses_per_txn = 16;
    dbx::YcsbGenerator gen(cfg, 12345);
    dbx::TxnRequest req;
    const std::uint64_t hops_before = counter(m, stats::Counter::kTxnLockHops);
    std::uint64_t keys = 0;
    for (int n = 0; n < 1000; ++n) {
      gen.next(&req);
      Txn t(m);
      for (std::uint32_t i = 0; i < req.count; ++i) {
        const auto v = t.get(req.accesses[i].key);
        ASSERT_TRUE(v.has_value());
        if (req.accesses[i].is_write) t.put(req.accesses[i].key, *v + 1);
      }
      keys += req.count;
      ASSERT_EQ(t.commit(), TxnResult::kCommitted) << rows << " rows, #" << n;
    }
    EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 0u);
    EXPECT_EQ(counter(m, stats::Counter::kTxnLockFail), 0u);
    const double hops_per_key =
        static_cast<double>(counter(m, stats::Counter::kTxnLockHops) -
                            hops_before) /
        static_cast<double>(keys);
    EXPECT_LT(hops_per_key, 2.0 * MA::kMaxLockHops) << rows << " rows";
  }
}

// With no index layers a re-seek can only route to the head data chunk,
// which the pass often holds already: it must walk on from its last lock.
TEST(TxnLockPass, SingleLayerMapCommits) {
  Config c;
  c.layer_count = 1;
  c.target_data_vector_size = 4;
  Map m(c);
  for (std::uint64_t k = 0; k < 256; ++k) ASSERT_TRUE(m.insert(k, 0));
  for (std::uint64_t first = 0; first < 8; ++first) {
    Txn t(m);
    for (std::uint64_t k = first; k < 256; k += 50) t.put(k, first + 1);
    ASSERT_EQ(t.commit(), TxnResult::kCommitted) << "first key " << first;
  }
  EXPECT_EQ(m.lookup(7), std::optional<std::uint64_t>(8));
  EXPECT_EQ(m.lookup(250), std::optional<std::uint64_t>(1));
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// The last held lock covers a key only if its successor's minimum is read
// consistently. Here a lock pass holds the orphan {282, 290} after the head
// chunk {270, 280} midway through the commit {remove(282), put(283)}: its
// minimum reads 290, larger than in either committed state. Trusting that
// read would place 283 in the head chunk while the other commit puts a
// second 283 into the orphan. While the orphan is held the transaction must
// not commit; after release it must commit into the orphan.
TEST(TxnLockPass, LockedSuccessorIsNotCovered) {
  for (const auto layout :
       {vectormap::Layout::kSorted, vectormap::Layout::kUnsorted}) {
    SCOPED_TRACE(vectormap::layout_name(layout));
    Config c;
    c.layer_count = 2;
    c.target_data_vector_size = 4;
    c.target_index_vector_size = 4;
    c.data_layout = layout;
    Map m(c);
    for (std::uint64_t k : {270, 280}) {
      ASSERT_TRUE(m.insert_with_height(k, k, 0));
    }
    ASSERT_TRUE(m.insert_with_height(281, 281, 1));
    for (std::uint64_t k : {282, 290}) {
      ASSERT_TRUE(m.insert_with_height(k, k, 0));
    }
    ASSERT_TRUE(m.remove(281));  // strips the tower: {282, 290} is an orphan
    ASSERT_EQ(counter(m, stats::Counter::kOrphanMerges), 0u);

    Chunk* orphan = HoldFloor(m, 282);
    ASSERT_TRUE(MA::is_orphan(orphan));
    std::array<MA::Op, 2> ops{MA::Op::remove(282), MA::Op::put(283, 2830)};
    const std::vector<std::uint32_t> order{0, 1};
    const std::uint64_t version = MA::version_reserve(m);
    std::vector<Chunk*> pieces;
    std::size_t applied = 0;
    std::int64_t delta = 0;
    auto apply = [&](std::size_t i) {
      MA::apply_chunk_ops(m, orphan, ops.data(), order, i, i + 1, version,
                          MA::snapshots_active(m), pieces, applied, delta);
    };
    apply(0);  // remove(282)

    auto attempt = [&] {
      Txn t(m);
      EXPECT_EQ(t.get(280), std::optional<std::uint64_t>(280));
      t.put(283, 1);
      return t.commit();
    };
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(attempt(), TxnResult::kLockConflict) << "attempt " << i;
    }
    apply(1);  // put(283)
    MA::note_size_delta(m, delta);
    orphan->lock.release();

    EXPECT_EQ(attempt(), TxnResult::kCommitted);
    std::vector<std::uint64_t> keys;
    m.for_each([&](std::uint64_t k, std::uint64_t) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{270, 280, 283, 290}));
    EXPECT_EQ(m.lookup(283), std::optional<std::uint64_t>(1));
    std::string err;
    EXPECT_TRUE(m.validate(&err)) << err;
  }
}

// ---- Pinned reads ----------------------------------------------------------

std::size_t PinnedReads(const Txn& t) {
  std::size_t n = 0;
  for (const auto& r : t.reads()) n += r.chunk != nullptr;
  return n;
}

// Single-threaded read-modify-write transactions find every chunk as their
// reads left it: the commit locks each from its read's word, with no step
// from the last lock and no seek (the value check and every covers() call
// are skipped too), so it crosses no chunk at all.
TEST(TxnPinned, UnchangedChunksCommitWithoutSeeking) {
  constexpr std::uint64_t kRows = std::uint64_t{1} << 16;
  Map m(Config::for_elements(kRows));
  for (std::uint64_t k = 0; k < kRows; ++k) ASSERT_TRUE(m.insert(k, 0));
  dbx::YcsbConfig cfg;
  cfg.table_rows = kRows;
  cfg.zipf_theta = 0.1;
  cfg.accesses_per_txn = 16;
  dbx::YcsbGenerator gen(cfg, 777);
  dbx::TxnRequest req;
  const std::uint64_t hops_before = counter(m, stats::Counter::kTxnLockHops);
  std::uint64_t increments = 0;
  for (int n = 0; n < 1000; ++n) {
    gen.next(&req);
    Txn t(m);
    for (std::uint32_t i = 0; i < req.count; ++i) {
      const auto v = t.get(req.accesses[i].key);
      ASSERT_TRUE(v.has_value());
      t.put(req.accesses[i].key, *v + 1);
    }
    ASSERT_EQ(PinnedReads(t), t.reads().size());
    increments += t.writes().size();
    ASSERT_EQ(t.commit(), TxnResult::kCommitted) << "#" << n;
  }
  EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 0u);
  if (stats::kEnabled) {
    EXPECT_EQ(counter(m, stats::Counter::kTxnLockHops) - hops_before, 0u);
  }
  std::uint64_t sum = 0;
  m.for_each([&](std::uint64_t, std::uint64_t v) { sum += v; });
  EXPECT_EQ(sum, increments);
}

// Reads the commit cannot validate by a pin keep the lock pass's bound:
// with the thread's pin slots held by another Txn, every read takes the
// step-or-seek path, and spread keys still cross a bounded number of
// chunks each at any table size. (The same workload with pinned reads,
// as in TxnLockPass.HopsPerKeyIndependentOfTableSize, never reaches that
// path.)
TEST(TxnPinned, UnpinnedReadsKeepHopBound) {
  for (const std::uint64_t rows : {std::uint64_t{1} << 16,
                                   std::uint64_t{1} << 18}) {
    Map m(Config::for_elements(rows));
    for (std::uint64_t k = 0; k < rows; ++k) ASSERT_TRUE(m.insert(k, 0));
    Txn holder(m);
    ASSERT_EQ(holder.get(0), std::optional<std::uint64_t>(0));
    ASSERT_EQ(PinnedReads(holder), 1u);
    dbx::YcsbConfig cfg;
    cfg.table_rows = rows;
    cfg.zipf_theta = 0.1;
    cfg.accesses_per_txn = 16;
    dbx::YcsbGenerator gen(cfg, 4242);
    dbx::TxnRequest req;
    const std::uint64_t hops_before = counter(m, stats::Counter::kTxnLockHops);
    std::uint64_t keys = 0;
    for (int n = 0; n < 1000; ++n) {
      gen.next(&req);
      Txn t(m);
      for (std::uint32_t i = 0; i < req.count; ++i) {
        const auto v = t.get(req.accesses[i].key);
        ASSERT_TRUE(v.has_value());
        if (req.accesses[i].is_write) t.put(req.accesses[i].key, *v + 1);
      }
      ASSERT_EQ(PinnedReads(t), 0u);
      keys += req.count;
      ASSERT_EQ(t.commit(), TxnResult::kCommitted) << rows << " rows, #" << n;
    }
    holder.abort();
    EXPECT_EQ(counter(m, stats::Counter::kTxnAborts), 0u);
    const double hops_per_key =
        static_cast<double>(counter(m, stats::Counter::kTxnLockHops) -
                            hops_before) /
        static_cast<double>(keys);
    EXPECT_LT(hops_per_key, 2.0 * MA::kMaxLockHops) << rows << " rows";
  }
}

// A write to k's chunk between get(k) and commit bumps the chunk's word,
// so the commit cannot lock it from the read's word: it finds k again and
// compares values. Another key's update leaves k's value, and the commit
// goes through; an update of k itself fails validation.
TEST(TxnPinned, ChangedChunkFallsBackToValueCheck) {
  Map m(Config::for_elements(1024));
  for (std::uint64_t k = 0; k < 1024; ++k) ASSERT_TRUE(m.insert(k, k));
  constexpr std::uint64_t kKey = 500;
  for (const bool same_key : {false, true}) {
    SCOPED_TRACE(same_key ? "k updated" : "neighbour updated");
    Txn t(m);
    ASSERT_EQ(t.get(kKey), std::optional<std::uint64_t>(kKey));
    ASSERT_EQ(PinnedReads(t), 1u);
    Chunk* chunk = t.reads()[0].chunk;
    const std::uint64_t other = MA::read_in_chunk(m, chunk, kKey + 1)
                                    ? kKey + 1
                                    : kKey - 1;
    ASSERT_TRUE(MA::read_in_chunk(m, chunk, other).has_value());
    t.put(kKey, 1);
    t.put(2000, 1);
    std::thread([&] {
      ASSERT_TRUE(m.update(same_key ? kKey : other, 7));
    }).join();
    ASSERT_NE(chunk->lock.load_relaxed(), t.reads()[0].word);
    if (same_key) {
      EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
      EXPECT_EQ(m.lookup(kKey), std::optional<std::uint64_t>(7));
      EXPECT_FALSE(m.lookup(2000).has_value());
    } else {
      EXPECT_EQ(t.commit(), TxnResult::kCommitted);
      EXPECT_EQ(m.lookup(kKey), std::optional<std::uint64_t>(1));
      EXPECT_EQ(m.lookup(other), std::optional<std::uint64_t>(7));
      ASSERT_TRUE(m.remove(2000));
      ASSERT_TRUE(m.update(kKey, kKey));
    }
  }
  std::string err;
  EXPECT_TRUE(m.validate(&err)) << err;
}

// The chunk a read pinned is an orphan that a merge retires before the
// commit. The pin keeps it allocated through a full scan, so the commit
// can still read its (bumped) word; it then falls back, finds the key in
// the merged chunk, and commits. Only the scan after the commit released
// the pins frees the chunk.
TEST(TxnPinned, PinnedChunkOutlivesMerge) {
  Config c;
  c.layer_count = 2;
  c.target_data_vector_size = 4;  // capacity 8, merge threshold 7
  c.target_index_vector_size = 4;
  Map m(c);
  // Head chunk {10,20,30,40}; towered chunk A {50,55}; orphan X {65}.
  for (std::uint64_t k : {10, 20, 30, 40}) {
    ASSERT_TRUE(m.insert_with_height(k, k, 0));
  }
  ASSERT_TRUE(m.insert_with_height(50, 50, 1));
  ASSERT_TRUE(m.insert_with_height(55, 55, 0));
  ASSERT_TRUE(m.insert_with_height(60, 60, 1));
  ASSERT_TRUE(m.insert_with_height(65, 65, 0));
  ASSERT_TRUE(m.remove(60));
  auto& domain = m.reclaimer().domain();
  domain.flush();
  const std::uint64_t reclaimed = domain.reclaimed_count();

  Txn t(m);
  ASSERT_EQ(t.get(65), std::optional<std::uint64_t>(65));
  ASSERT_EQ(PinnedReads(t), 1u);
  Chunk* x = t.reads()[0].chunk;
  ASSERT_TRUE(MA::is_orphan(x));
  t.put(65, 650);

  // A mutator routed to A merges X into it and retires X.
  std::thread([&] { EXPECT_TRUE(m.insert_with_height(66, 66, 0)); }).join();
  if (stats::kEnabled) {
    EXPECT_EQ(counter(m, stats::Counter::kOrphanMerges), 1u);
  }
  domain.flush();
  EXPECT_EQ(domain.reclaimed_count(), reclaimed) << "a pinned chunk was freed";
  EXPECT_EQ(domain.retired_count(), 1u);

  EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  domain.flush();
  EXPECT_EQ(domain.reclaimed_count(), reclaimed + 1);
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_EQ(m.lookup(65), std::optional<std::uint64_t>(650));
  EXPECT_EQ(m.lookup(66), std::optional<std::uint64_t>(66));
  const auto rep = m.validate_structure();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// The pin slots belong to one Txn per thread at a time: a second live Txn
// reads unpinned until the first releases them, and both commit.
TEST(TxnPinned, SecondTxnOnThreadReadsUnpinned) {
  Map m(Config::for_elements(1024));
  for (std::uint64_t k = 0; k < 1024; ++k) ASSERT_TRUE(m.insert(k, k));
  Txn first(m);
  Txn second(m);
  ASSERT_EQ(first.get(1), std::optional<std::uint64_t>(1));
  ASSERT_EQ(second.get(900), std::optional<std::uint64_t>(900));
  EXPECT_EQ(PinnedReads(first), 1u);
  EXPECT_EQ(PinnedReads(second), 0u);
  first.put(1, 10);
  second.put(900, 9000);
  EXPECT_EQ(first.commit(), TxnResult::kCommitted);
  // Released by the commit: the second Txn's next read claims the pins.
  ASSERT_EQ(second.get(901), std::optional<std::uint64_t>(901));
  EXPECT_EQ(PinnedReads(second), 1u);
  second.put(901, 9010);
  EXPECT_EQ(second.commit(), TxnResult::kCommitted);
  EXPECT_EQ(m.lookup(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(m.lookup(900), std::optional<std::uint64_t>(9000));
  EXPECT_EQ(m.lookup(901), std::optional<std::uint64_t>(9010));
}

// Reads past the last pin slot are unpinned and validated by value; an
// update of an unpinned key still fails the commit.
TEST(TxnPinned, MoreReadsThanPinSlots) {
  constexpr std::uint64_t kReads = 40;
  constexpr std::size_t kSlots = reclaim::HazardDomain::kPinSlots;
  Map m(Config::for_elements(4096));
  for (std::uint64_t k = 0; k < 4096; ++k) ASSERT_TRUE(m.insert(k, k));
  for (const bool conflict : {true, false}) {
    Txn t(m);
    for (std::uint64_t i = 0; i < kReads; ++i) {
      const std::uint64_t k = i * 100;
      ASSERT_EQ(t.get(k), std::optional<std::uint64_t>(k));
      t.put(k, k + 1);
    }
    ASSERT_EQ(t.reads().size(), kReads);
    EXPECT_EQ(PinnedReads(t), kSlots);
    for (std::size_t i = 0; i < kReads; ++i) {
      EXPECT_EQ(t.reads()[i].chunk != nullptr, i < kSlots) << "read " << i;
    }
    if (conflict) {
      std::thread([&] { ASSERT_TRUE(m.update((kReads - 1) * 100, 5)); })
          .join();
      EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
      EXPECT_EQ(m.lookup(0), std::optional<std::uint64_t>(0));
      ASSERT_TRUE(m.update((kReads - 1) * 100, (kReads - 1) * 100));
    } else {
      EXPECT_EQ(t.commit(), TxnResult::kCommitted);
    }
  }
  for (std::uint64_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(m.lookup(i * 100), std::optional<std::uint64_t>(i * 100 + 1));
  }
}

// Moving a Txn moves its pins: the moved-from handle releases nothing, so
// another Txn still reads unpinned until the moved-to one commits.
TEST(TxnPinned, MovedTxnKeepsItsPins) {
  Map m(Config::for_elements(1024));
  for (std::uint64_t k = 0; k < 1024; ++k) ASSERT_TRUE(m.insert(k, k));
  auto unpinned_read = [&](std::uint64_t k) {
    Txn probe(m);
    EXPECT_EQ(probe.get(k), std::optional<std::uint64_t>(k));
    return PinnedReads(probe) == 0;
  };
  std::optional<Txn> moved;
  {
    Txn t(m);
    ASSERT_EQ(t.get(3), std::optional<std::uint64_t>(3));
    t.put(3, 30);
    moved.emplace(std::move(t));  // move construction
  }
  EXPECT_TRUE(unpinned_read(600));
  Txn assigned(m);
  assigned = std::move(*moved);  // move assignment
  moved.reset();
  EXPECT_TRUE(unpinned_read(600));
  ASSERT_EQ(assigned.get(4), std::optional<std::uint64_t>(4));
  assigned.put(4, 40);
  EXPECT_EQ(PinnedReads(assigned), 2u);
  EXPECT_EQ(assigned.commit(), TxnResult::kCommitted);
  EXPECT_FALSE(unpinned_read(600));
  EXPECT_EQ(m.lookup(3), std::optional<std::uint64_t>(30));
  EXPECT_EQ(m.lookup(4), std::optional<std::uint64_t>(40));
}

// Hazard-pointer maps pin their reads; the EBR, Leak and Immediate
// reclaimers read unpinned. Either way the commit validates every read.
template <class M>
void RmwCommitsAndStaleReadFails(bool pinned) {
  EXPECT_EQ(txn::kPinnedReads<M>, pinned);
  M m(Config::for_elements(256));
  for (std::uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(m.insert(k, k));
  for (int round = 0; round < 2; ++round) {
    txn::Txn<M> t(m);
    for (const std::uint64_t k : {5, 40}) {
      const auto v = t.get(k);
      ASSERT_TRUE(v.has_value());
      t.put(k, *v + 1);
    }
    for (const auto& r : t.reads()) EXPECT_EQ(r.chunk != nullptr, pinned);
    EXPECT_EQ(t.commit(), TxnResult::kCommitted);
  }
  txn::Txn<M> t(m);
  ASSERT_EQ(t.get(5), std::optional<std::uint64_t>(7));
  t.put(6, 0);
  ASSERT_TRUE(m.update(5, 0));
  EXPECT_EQ(t.commit(), TxnResult::kValidationFail);
  EXPECT_EQ(m.lookup(6), std::optional<std::uint64_t>(6));
  EXPECT_EQ(m.lookup(40), std::optional<std::uint64_t>(42));
}

TEST(TxnPinned, OnlyHazardPointerMapsPin) {
  using K = std::uint64_t;
  RmwCommitsAndStaleReadFails<Map>(true);
  RmwCommitsAndStaleReadFails<SkipVectorEpoch<K, K>>(false);
  RmwCommitsAndStaleReadFails<SkipVectorLeak<K, K>>(false);
  RmwCommitsAndStaleReadFails<SkipVectorSeq<K, K>>(false);
}

// ---- Fault injection -------------------------------------------------------

using debug::FaultInjector;
using debug::Point;

// A merge retires the successor of the chunk the lock pass stands on
// between the step's validation of that chunk and its read of the
// successor's word. The retired chunk's word never changes again, so only
// re-validating the chunk the walk stands on keeps the walk (and the
// commit) off it: entering it would follow its retired_next() sentinel or
// lock a chunk no reader will ever see again.
TEST(TxnInjection, SuccessorMergedMidStep) {
  Config c;
  c.layer_count = 2;
  c.target_data_vector_size = 4;  // capacity 8, merge threshold 7
  c.target_index_vector_size = 4;
  using HitSnapshot =
      std::array<std::uint64_t, static_cast<std::size_t>(Point::kCount)>;
  auto run_once = [&] {
    Map m(c);
    // Shape: head chunk {10,20,30,40}; towered chunk A {50,55}; orphan X
    // {65} (removing 60 stripped its tower and left X awaiting a merge).
    for (std::uint64_t k : {10, 20, 30, 40}) {
      EXPECT_TRUE(m.insert_with_height(k, k, 0));
    }
    EXPECT_TRUE(m.insert_with_height(50, 50, 1));
    EXPECT_TRUE(m.insert_with_height(55, 55, 0));
    EXPECT_TRUE(m.insert_with_height(60, 60, 1));
    EXPECT_TRUE(m.insert_with_height(65, 65, 0));
    EXPECT_TRUE(m.remove(60));
    EXPECT_EQ(counter(m, stats::Counter::kOrphanMerges), 0u);

    // The pass seeks the head chunk for 10 and locks it after reading A's
    // minimum (hit 1); 10 is a blind write, since a pinned read would lock
    // the head directly, with no step. For 65 it steps head -> A (hit 2)
    // and reads X (hit 3). At hit 3 a mutator whose descent routes
    // straight to A merges X into A, retiring X.
    FaultInjector::instance().set_handler([&](Point p, std::uint64_t hit) {
      if (p != Point::kTxnLockStep || hit != 3) return;
      std::thread merger(
          [&] { EXPECT_TRUE(m.insert_with_height(66, 66, 0)); });
      merger.join();
    });
    Txn t(m);
    t.put(10, 10);
    t.put(65, 650);
    EXPECT_EQ(t.commit(), TxnResult::kCommitted);
    const HitSnapshot snap = FaultInjector::instance().hit_snapshot();
    FaultInjector::instance().clear();

    EXPECT_EQ(snap[static_cast<std::size_t>(Point::kTxnLockStep)], 3u);
    if (stats::kEnabled) {
      EXPECT_EQ(counter(m, stats::Counter::kOrphanMerges), 1u);
    }
    EXPECT_EQ(m.lookup(65), std::optional<std::uint64_t>(650));
    EXPECT_EQ(m.lookup(66), std::optional<std::uint64_t>(66));
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    return snap;
  };
  const HitSnapshot a = run_once();
  const HitSnapshot b = run_once();
  EXPECT_EQ(a, b) << "the interleaving must replay with an identical trace";
}

}  // namespace
}  // namespace sv::core
