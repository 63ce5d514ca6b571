// sv::txn::Txn: user-facing multi-key transactions over a SkipVectorMap.
//
// Execution model (optimistic reads + commit-time NO_WAIT 2PL, the 2PLSF
// direction the ROADMAP names):
//   - get() reads the live map WITHOUT locks and records the observation in
//     the transaction's read set (read-your-writes against the buffered
//     write set first). On a hazard-pointer map it also keeps the data
//     chunk that answered pinned, with the seqlock word it validated at:
//     commit then locks that chunk from that word with one try_upgrade
//     instead of finding the key again (ReadPins below).
//   - put()/remove() only buffer intents -- nothing touches the map until
//     commit(), which is why abort() is undo-free.
//   - commit() hands the sorted union of read and write keys to the shared
//     lock manager (txn/lock_mgr.h): floor chunks are locked ascending
//     (NO_WAIT), the read set is re-validated under those locks, then the
//     whole write set is applied at ONE reserved commit version through the
//     map's chunk commit (reserve -> pre-image -> stamp -> mutate). The
//     result is serializable: every committed transaction behaves as if all
//     its reads and writes happened at its commit point, which is also the
//     single linearization point the WGL checker extension assumes
//     (src/check/history.h).
//   - scan() is a read-committed range read (it does NOT join the read set
//     and offers no phantom protection) -- the same stance the YCSB-E scan
//     path takes; use get() loops where serializable reads are required.
//
// Conflicts surface as TxnResult::kLockConflict (someone held a chunk we
// needed -- NO_WAIT never waits) or kValidationFail (a committed writer got
// between one of our reads and our commit). Both leave the map untouched;
// run() re-executes the whole transaction body under the bounded
// exponential-backoff RetryPolicy. See docs/TRANSACTIONS.md.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "stats/stats.h"
#include "sync/backoff.h"
#include "txn/lock_mgr.h"

namespace sv::txn {

enum class TxnResult : std::uint8_t {
  kCommitted,
  kLockConflict,    // NO_WAIT chunk acquisition failed; retry is promising
  kValidationFail,  // a read no longer holds; the body must re-execute
};

// Whether Map's reclaimer keeps pointers protected across operations: only
// hazard pointers do, through the pin slots of the thread's record
// (reclaim/hazard_pointers.h). The EBR, Leak and Immediate reclaimers read
// unpinned.
template <class Map>
inline constexpr bool kPinnedReads =
    requires(typename MapAccess<Map>::Ctx c) { c.claim_pins(); };

// The pin slots one Txn holds. The thread's first Txn to read from the map
// claims them; commit(), abort() and the destructor release them. Reads
// while another live Txn on the same thread holds them, and reads beyond
// the slot count, are unpinned (commit validates those by value).
template <class Map, bool = kPinnedReads<Map>>
class ReadPins {
 public:
  using MA = MapAccess<Map>;
  template <class Read>
  std::optional<typename MA::V> read(Map& m, typename MA::K k, Read*) {
    return m.lookup(k);
  }
  void release() noexcept {}
};

template <class Map>
class ReadPins<Map, true> {
 public:
  using MA = MapAccess<Map>;
  using Ctx = typename MA::Ctx;
  static constexpr int kSlots = Ctx::kPinSlots;

  ReadPins() = default;
  ~ReadPins() { release(); }
  // Moves transfer the claim: the moved-from object releases nothing.
  ReadPins(ReadPins&& o) noexcept { take(o); }
  ReadPins& operator=(ReadPins&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }

  // Reads k from the map. While this object holds the pins and one is
  // free, the data chunk that answered is pinned, and *r records it with
  // the word the read validated at.
  template <class Read>
  std::optional<typename MA::V> read(Map& m, typename MA::K k, Read* r) {
    if (!held_) {
      ctx_ = MA::thread_ctx(m);
      held_ = ctx_.claim_pins();
#ifndef NDEBUG
      thread_ = std::this_thread::get_id();
#endif
    }
    assert_owner();
    if (!held_ || used_ == kSlots) return m.lookup(k);
    return MA::lookup_pinned(m, ctx_, k, used_++, &r->chunk, &r->word);
  }

  void release() noexcept {
    if (!held_) return;
    assert_owner();
    ctx_.release_pins(used_);
    held_ = false;
    used_ = 0;
  }

 private:
  void take(ReadPins& o) noexcept {
    ctx_ = o.ctx_;
    used_ = o.used_;
    held_ = o.held_;
#ifndef NDEBUG
    thread_ = o.thread_;
#endif
    o.held_ = false;
    o.used_ = 0;
  }
  // The pin slots belong to the claiming thread's hazard record.
  void assert_owner() const noexcept {
#ifndef NDEBUG
    assert(thread_ == std::this_thread::get_id() &&
           "a Txn is used by one thread");
#endif
  }

  Ctx ctx_;
  int used_ = 0;
  bool held_ = false;
#ifndef NDEBUG
  std::thread::id thread_;
#endif
};

template <class Map>
class Txn {
 public:
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  using Op = typename Map::BatchOp;

  struct WriteEntry {
    K key;
    V value;              // ignored for removes
    mvcc::BatchOpKind kind;
    bool applied = false;  // set by commit(): did presence change?
  };
  using ReadEntry = typename LockMgr<Map>::Read;

  explicit Txn(Map& m) : map_(&m) {}

  // Not copyable (owns in-flight read/write sets); movable for begin().
  // Moves transfer the pins (ReadPins' moves do). A Txn is used by one
  // thread, since its pins live in that thread's hazard record (asserted
  // in debug builds), and must not outlive its map.
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  Txn(Txn&&) = default;
  Txn& operator=(Txn&&) = default;

  bool active() const noexcept { return active_; }

  // Transactional point read. Buffered writes win (read-your-writes); a
  // repeated read returns the first observation (the value the commit will
  // validate); otherwise the live map is consulted and the observation
  // joins the read set.
  std::optional<V> get(K k) {
    for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
      if (it->key == k) {
        if (it->kind == mvcc::BatchOpKind::kRemove) return std::nullopt;
        return it->value;
      }
    }
    for (const ReadEntry& r : reads_) {
      if (r.key == k) {
        if (!r.present) return std::nullopt;
        return r.value;
      }
    }
    ReadEntry r{k, false, V{}};
    const std::optional<V> got = pins_.read(*map_, k, &r);
    r.present = got.has_value();
    r.value = got.value_or(V{});
    reads_.push_back(r);
    return got;
  }

  // Buffered upsert / erase: deferred to commit(). Same-key intents apply
  // in submission order at commit (last write wins), exactly like
  // apply_batch's same-key semantics.
  void put(K k, V v) {
    writes_.push_back(WriteEntry{k, v, mvcc::BatchOpKind::kPut});
  }
  void remove(K k) {
    writes_.push_back(WriteEntry{k, V{}, mvcc::BatchOpKind::kRemove});
  }

  // Read-committed range read over the live map (documented non-goal:
  // scans do not join the read set, so commit() does not protect against
  // phantoms). Buffered writes are NOT overlaid.
  template <class Fn>
  std::size_t scan(K lo, K hi, Fn&& fn) {
    return map_->range_for_each(lo, hi, std::forward<Fn>(fn));
  }

  // Try to commit: one NO_WAIT pass over the shared lock manager. On
  // kCommitted the write set became visible atomically at one commit
  // version and each WriteEntry's `applied` flag is set. On any failure
  // the map is untouched and the transaction is dead -- re-execute the
  // whole body (run() below automates that); towered-remove demotes are
  // handled internally since they need no re-execution. Releases the pins.
  TxnResult commit() {
    const TxnResult r = commit_pass();
    pins_.release();
    return r;
  }

  // Undo-free discard: mutations were deferred, so aborting only drops the
  // buffered read/write sets and the pins. The handle can be reused as a
  // fresh transaction afterwards.
  void abort() {
    pins_.release();
    reads_.clear();
    writes_.clear();
    active_ = true;
  }

  // Post-mortem access for recorders/tests (valid until the next abort();
  // a read's chunk pointer only while the Txn holds its pins).
  const std::vector<ReadEntry>& reads() const noexcept { return reads_; }
  const std::vector<WriteEntry>& writes() const noexcept { return writes_; }

 private:
  TxnResult commit_pass() {
    typename MapAccess<Map>::OpScope op(*map_);
    active_ = false;
    if (writes_.empty() && reads_.empty()) {
      stats::count(stats::Counter::kTxnCommits);
      return TxnResult::kCommitted;
    }
    std::vector<Op> ops;
    ops.reserve(writes_.size());
    for (const WriteEntry& w : writes_) {
      ops.push_back(w.kind == mvcc::BatchOpKind::kPut
                        ? Op::put(w.key, w.value)
                        : Op::remove(w.key));
    }
    std::vector<std::uint32_t> order(ops.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ops[a].key < ops[b].key;
                     });
    std::sort(reads_.begin(), reads_.end(),
              [](const ReadEntry& a, const ReadEntry& b) {
                return a.key < b.key;
              });
    sync::Backoff backoff;
    for (;;) {
      const auto r =
          LockMgr<Map>::try_commit(*map_, op.ctx, ops.data(), order, reads_);
      switch (r.status) {
        case PassStatus::kCommitted:
          for (std::size_t i = 0; i < writes_.size(); ++i) {
            writes_[i].applied = ops[i].applied;
          }
          MapAccess<Map>::note_size_delta(*map_, r.delta);
          stats::count(stats::Counter::kTxnCommits);
          return TxnResult::kCommitted;
        case PassStatus::kNeedDemote:
          // Benign structural fix (the key stays present): demote and
          // retry the pass -- reads re-validate on the next pass, so no
          // re-execution is needed.
          MapAccess<Map>::demote_tower(*map_, op.ctx, r.demote_key);
          backoff.pause();
          continue;
        case PassStatus::kLockConflict:
          stats::count(stats::Counter::kTxnAborts);
          return TxnResult::kLockConflict;
        case PassStatus::kValidationFail:
          stats::count(stats::Counter::kTxnAborts);
          return TxnResult::kValidationFail;
      }
    }
  }

  Map* map_;
  std::vector<ReadEntry> reads_;    // unique keys, insertion order
  std::vector<WriteEntry> writes_;  // submission order (may repeat keys)
  bool active_ = true;
  ReadPins<Map> pins_;  // keeps reads_' chunks allocated until released
};

template <class Map>
Txn<Map> begin(Map& m) {
  return Txn<Map>(m);
}

// Run `body(txn)` to a committed conclusion, re-executing it on conflicts
// with bounded exponential backoff (RetryPolicy). The body returns bool:
// false means "user abort" -- the transaction is discarded with no retry
// and run() returns false. Returns true once a re-execution commits; false
// if the body aborted or max_attempts re-executions all conflicted.
template <class Map, class Body>
bool run(Map& m, Body&& body, const RetryPolicy& policy = {}) {
  stats::Scope stats_scope(m.stats_registry());
  sync::Backoff backoff(policy.max_spins);
  for (std::uint32_t attempt = 0;; ++attempt) {
    Txn<Map> t(m);
    if (!body(t)) return false;
    if (t.commit() == TxnResult::kCommitted) return true;
    if (policy.max_attempts != 0 && attempt + 1 >= policy.max_attempts) {
      return false;
    }
    stats::count(stats::Counter::kTxnRetries);
    backoff.pause();
  }
}

}  // namespace sv::txn
