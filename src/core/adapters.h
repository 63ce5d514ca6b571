// Adapters layering the paper's §I motivating abstractions over the skip
// vector: an ordered set, a concurrent priority queue (skip lists are a
// standard substrate for both [4], [5]), and a history-recording wrapper
// feeding the linearizability checker in src/check/.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "check/history.h"
#include "core/skip_vector.h"
#include "txn/txn.h"

namespace sv::core {

// RecordingMap: wraps any map exposing (a subset of) the common map API --
// insert/remove/update/lookup/range_for_each -- and records every completed
// operation into a check::HistoryRecorder for post-run linearizability
// checking (src/check/wgl.h). One adapter serves every implementation:
// SkipVectorMap with any reclaimer, ShardedSkipVector, and the baselines.
// Member templates instantiate lazily, so wrapping a map without e.g.
// update() is fine as long as update() is never called.
//
// Range scans are recorded as one kRangeObserve event per mapping returned,
// all sharing the scan's invoke/response interval (per-key decomposition --
// cross-key scan atomicity is covered by tests/range_scan_stress_test.cc,
// not by the checker; see docs/LINEARIZABILITY.md).
//
// Pass recorder == nullptr to disable recording entirely; the wrapper then
// only forwards, which is how the recorder's overhead is measured
// (tools/opfuzz --lincheck --measure-overhead).
template <class Inner, class K = std::uint64_t, class V = std::uint64_t>
class RecordingMap {
 public:
  template <class... Args>
  explicit RecordingMap(check::HistoryRecorder* recorder, Args&&... args)
      : recorder_(recorder), inner_(std::forward<Args>(args)...) {}

  Inner& inner() noexcept { return inner_; }
  const Inner& inner() const noexcept { return inner_; }

  bool insert(K k, V v) {
    if (recorder_ == nullptr) return inner_.insert(k, v);
    auto& log = recorder_->thread_log();
    const std::uint64_t t0 = tsc_now();
    const bool ok = inner_.insert(k, v);
    const std::uint64_t t1 = tsc_now();
    log.record(check::OpKind::kInsert, k, v, ok, t0, t1);
    return ok;
  }

  bool remove(K k) {
    if (recorder_ == nullptr) return inner_.remove(k);
    auto& log = recorder_->thread_log();
    const std::uint64_t t0 = tsc_now();
    const bool ok = inner_.remove(k);
    const std::uint64_t t1 = tsc_now();
    log.record(check::OpKind::kRemove, k, 0, ok, t0, t1);
    return ok;
  }

  bool update(K k, V v) {
    if (recorder_ == nullptr) return inner_.update(k, v);
    auto& log = recorder_->thread_log();
    const std::uint64_t t0 = tsc_now();
    const bool ok = inner_.update(k, v);
    const std::uint64_t t1 = tsc_now();
    log.record(check::OpKind::kUpdate, k, v, ok, t0, t1);
    return ok;
  }

  std::optional<V> lookup(K k) {
    if (recorder_ == nullptr) return inner_.lookup(k);
    auto& log = recorder_->thread_log();
    const std::uint64_t t0 = tsc_now();
    const std::optional<V> got = inner_.lookup(k);
    const std::uint64_t t1 = tsc_now();
    log.record(check::OpKind::kLookup, k, got ? *got : 0, got.has_value(), t0,
               t1);
    return got;
  }

  template <class Fn>
  std::size_t range_for_each(K lo, K hi, Fn&& fn) {
    if (recorder_ == nullptr) return inner_.range_for_each(lo, hi, fn);
    auto& log = recorder_->thread_log();
    std::vector<std::pair<K, V>> observed;  // per-call: adapter is shared
    const std::uint64_t t0 = tsc_now();
    const std::size_t n = inner_.range_for_each(lo, hi, [&](K k, V v) {
      observed.emplace_back(k, v);
      fn(k, v);
    });
    const std::uint64_t t1 = tsc_now();
    for (const auto& [k, v] : observed) {
      log.record(check::OpKind::kRangeObserve, k, v, /*ok=*/true, t0, t1);
    }
    return n;
  }

  // Atomic batch (apply_batch): each op of a committed batch is recorded as
  // one kBatchPut/kBatchRemove event sharing the batch's invoke/response
  // interval -- the checker then demands a single point where every per-key
  // transition is simultaneously legal, which is exactly batch atomicity
  // projected per key. Templated on the op type so the adapter still wraps
  // inner maps without a batch API (only instantiated on use).
  template <class Op>
  std::size_t apply_batch(std::vector<Op>& ops) {
    if (recorder_ == nullptr) return inner_.apply_batch(ops);
    auto& log = recorder_->thread_log();
    const std::uint64_t t0 = tsc_now();
    const std::size_t n = inner_.apply_batch(ops);
    const std::uint64_t t1 = tsc_now();
    for (const auto& op : ops) {
      const bool put = op.kind == mvcc::BatchOpKind::kPut;
      log.record(put ? check::OpKind::kBatchPut : check::OpKind::kBatchRemove,
                 op.key, put ? op.value : 0, op.applied, t0, t1);
    }
    return n;
  }

  // Transaction (sv::txn): runs `body(txn)` to completion like txn::run,
  // recording each committed transaction as one kTxnCommit marker plus its
  // per-key decomposition -- one kLookup per validated read and one
  // kBatchPut/kBatchRemove per applied write, all sharing the commit's
  // invoke/response interval. The checker then demands a single point where
  // every read observation and write transition is simultaneously legal:
  // exactly the one-linearization-point-per-committed-transaction guarantee
  // serializable commits make. Conflicted or user-aborted attempts emit
  // only a kTxnAbort marker (aborts are undo-free, invisible to the map).
  template <class Body>
  bool run_txn(Body&& body, const txn::RetryPolicy& policy = {}) {
    if (recorder_ == nullptr) {
      return txn::run(inner_, std::forward<Body>(body), policy);
    }
    auto& log = recorder_->thread_log();
    sync::Backoff backoff(policy.max_spins);
    for (std::uint32_t attempt = 0;; ++attempt) {
      txn::Txn<Inner> t(inner_);
      const std::uint64_t tb = tsc_now();
      log.record(check::OpKind::kTxnBegin, 0, 0, true, tb, tb);
      if (!body(t)) {
        const std::uint64_t ta = tsc_now();
        log.record(check::OpKind::kTxnAbort, 0, 0, true, ta, ta);
        return false;
      }
      const std::uint64_t t0 = tsc_now();
      const bool committed = t.commit() == txn::TxnResult::kCommitted;
      const std::uint64_t t1 = tsc_now();
      if (committed) {
        for (const auto& r : t.reads()) {
          log.record(check::OpKind::kLookup, r.key, r.present ? r.value : 0,
                     r.present, t0, t1);
        }
        for (const auto& w : t.writes()) {
          const bool put = w.kind == mvcc::BatchOpKind::kPut;
          log.record(
              put ? check::OpKind::kBatchPut : check::OpKind::kBatchRemove,
              w.key, put ? w.value : 0, w.applied, t0, t1);
        }
        log.record(check::OpKind::kTxnCommit, 0, 0, true, t0, t1);
        return true;
      }
      log.record(check::OpKind::kTxnAbort, 0, 0, true, t0, t1);
      if (policy.max_attempts != 0 && attempt + 1 >= policy.max_attempts) {
        return false;
      }
      backoff.pause();
    }
  }

  // Versioned snapshot scan: one kSnapObserve per mapping returned, all
  // sharing the scan's interval (per-key decomposition, like ranges).
  template <class Fn>
  std::size_t snapshot_range(K lo, K hi, Fn&& fn) {
    if (recorder_ == nullptr) {
      auto view = inner_.snapshot_at();
      return inner_.range_for_each_at(view, lo, hi, fn);
    }
    auto& log = recorder_->thread_log();
    std::vector<std::pair<K, V>> observed;
    const std::uint64_t t0 = tsc_now();
    auto view = inner_.snapshot_at();
    const std::size_t n = inner_.range_for_each_at(view, lo, hi, [&](K k, V v) {
      observed.emplace_back(k, v);
      fn(k, v);
    });
    const std::uint64_t t1 = tsc_now();
    for (const auto& [k, v] : observed) {
      log.record(check::OpKind::kSnapObserve, k, v, /*ok=*/true, t0, t1);
    }
    return n;
  }

  std::size_t size_approx() const { return inner_.size_approx(); }

  bool validate(std::string* err = nullptr) const {
    return inner_.validate(err);
  }

 private:
  check::HistoryRecorder* recorder_;
  Inner inner_;
};

// Ordered set of keys.
template <class K, class Reclaimer = reclaim::HazardReclaimer>
class SkipVectorSet {
 public:
  explicit SkipVectorSet(Config config = Config{}) : map_(config) {}

  bool add(K k) { return map_.insert(k, 0); }
  bool erase(K k) { return map_.remove(k); }
  bool contains(K k) { return map_.lookup(k).has_value(); }
  std::size_t size_approx() const { return map_.size_approx(); }

  std::optional<K> first() {
    auto e = map_.first();
    if (!e) return std::nullopt;
    return e->first;
  }
  std::optional<K> last() {
    auto e = map_.last();
    if (!e) return std::nullopt;
    return e->first;
  }

  // Keys in [lo, hi], ascending, linearizable.
  template <class Fn>
  std::size_t range_for_each(K lo, K hi, Fn&& fn) {
    return map_.range_for_each(lo, hi, [&](K k, std::uint8_t) { fn(k); });
  }

  template <class Fn>
  void for_each(Fn&& fn) const {  // quiescent
    map_.for_each([&](K k, std::uint8_t) { fn(k); });
  }

  bool validate(std::string* err = nullptr) const {
    return map_.validate(err);
  }

 private:
  SkipVectorMap<K, std::uint8_t, Reclaimer> map_;
};

// Concurrent priority queue (min-queue over keys).
//
// pop_min() is linearizable with respect to concurrent pops: each element
// is claimed by exactly one popper (the successful remove). Like the
// skip-list priority queues the paper cites, an element inserted
// concurrently with a pop may or may not be observed by it; pops never
// return elements out of thin air and never lose elements.
template <class K, class V, class Reclaimer = reclaim::HazardReclaimer>
class SkipVectorPriorityQueue {
 public:
  explicit SkipVectorPriorityQueue(Config config = Config{}) : map_(config) {}

  // False if the priority is already present (priorities are unique keys;
  // callers needing duplicates should pack a sequence number into the key).
  bool push(K priority, V v) { return map_.insert(priority, v); }

  // Remove and return the smallest element, or nullopt if empty.
  std::optional<std::pair<K, V>> pop_min() {
    for (;;) {
      auto e = map_.first();
      if (!e) return std::nullopt;
      if (map_.remove(e->first)) return std::make_pair(e->first, e->second);
      // Someone else claimed it; retry from the new minimum.
    }
  }

  std::optional<std::pair<K, V>> peek_min() {
    auto e = map_.first();
    if (!e) return std::nullopt;
    return std::make_pair(e->first, e->second);
  }

  std::size_t size_approx() const { return map_.size_approx(); }

  bool validate(std::string* err = nullptr) const {
    return map_.validate(err);
  }

 private:
  SkipVectorMap<K, V, Reclaimer> map_;
};

}  // namespace sv::core
