// ShardedSkipVector: key-space partitioning across independent skip vector
// instances. Motivated by the paper's related work (NUMASK [14] shards skip
// lists across NUMA domains): each shard is its own map with its own
// reclamation domain, eliminating cross-shard cache traffic entirely. Point
// operations touch exactly one shard; range operations lock shards left to
// right (the global shard order keeps two-phase locking deadlock-free).
//
// Sharding is by key range, not by hash, so ordered iteration and range
// queries remain natural: shard i owns keys in [i * span, (i+1) * span),
// and the last shard also owns every key above that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/skip_vector.h"
#include "stats/stats.h"
#include "txn/lock_mgr.h"

namespace sv::core {

template <class K, class V, class Reclaimer = reclaim::HazardReclaimer>
class ShardedSkipVector {
  using Shard = SkipVectorMap<K, V, Reclaimer>;

 public:
  // key_space sets the shard span: shard i owns [i * span, (i+1) * span)
  // with span = ceil(key_space / shard_count), and the last shard also owns
  // every key from (shard_count - 1) * span up, key_space and beyond
  // included. shard_count must be >= 1.
  ShardedSkipVector(std::uint64_t key_space, std::uint32_t shard_count,
                    Config config = Config{})
      : span_(shard_count > 0 ? (key_space + shard_count - 1) / shard_count
                              : 0),
        gates_(shard_count) {
    if (shard_count < 1 || key_space < 1 || span_ < 1) {
      throw std::invalid_argument("need key_space >= 1 and shard_count >= 1");
    }
    shards_.reserve(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>(config));
    }
  }

  using BatchOp = typename Shard::BatchOp;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  bool insert(K k, V v) { return shard_for(k).insert(k, v); }
  bool remove(K k) { return shard_for(k).remove(k); }
  bool update(K k, V v) { return shard_for(k).update(k, v); }
  std::optional<V> lookup(K k) { return shard_for(k).lookup(k); }

  std::size_t size_approx() const noexcept {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->size_approx();
    return n;
  }

  // Smallest/largest mapping across all shards.
  typename Shard::Entry first() {
    for (auto& s : shards_) {
      if (auto e = s->first()) return e;
    }
    return std::nullopt;
  }
  typename Shard::Entry last() {
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      if (auto e = (*it)->last()) return e;
    }
    return std::nullopt;
  }

  // Range ops span shards in ascending key order. Multi-shard operations
  // (ranges, transforms, batches, snapshots touching more than one shard)
  // additionally hold the gate mutexes of every intersecting shard,
  // acquired in ascending shard order (deadlock-free 2PL over shards), for
  // their whole duration. This serializes multi-shard operations against
  // each other, closing the gap the earlier revision documented (two
  // cross-shard scans/batches could observe each other's partial effects);
  // single-shard operations never touch a gate and keep their full
  // per-shard linearizability. Point writers still bypass gates, so a
  // multi-shard scan is serializable -- each shard segment is an atomic
  // sub-scan and all multi-shard ops are totally ordered -- but not
  // linearizable with respect to real time across shards (that would
  // require gating every point op; the classic sharding trade-off NUMASK
  // makes too).
  template <class Fn>
  std::size_t range_for_each(K lo, K hi, Fn&& fn) {
    const auto guard = gate_span(lo, hi);
    std::size_t n = 0;
    for_intersecting(lo, hi, [&](Shard& s, K slo, K shi) {
      n += s.range_for_each(slo, shi, fn);
    });
    return n;
  }

  template <class Fn>
  std::size_t range_transform(K lo, K hi, Fn&& fn) {
    const auto guard = gate_span(lo, hi);
    std::size_t n = 0;
    for_intersecting(lo, hi, [&](Shard& s, K slo, K shi) {
      n += s.range_transform(slo, shi, fn);
    });
    return n;
  }

  // Consistent copy of [lo, hi]: single-shard requests delegate to the
  // shard's wait-free versioned snapshot; multi-shard requests additionally
  // hold the shard gates, so concurrent multi-shard batches cannot commit
  // between the per-shard pins (each segment is still taken via the shard's
  // own snapshot_at, so single-shard writers are never blocked).
  std::vector<std::pair<K, V>> snapshot(K lo, K hi) {
    const auto guard = gate_span(lo, hi);
    std::vector<std::pair<K, V>> out;
    for_intersecting(lo, hi, [&](Shard& s, K slo, K shi) {
      auto part = s.snapshot(slo, shi);
      out.insert(out.end(), part.begin(), part.end());
    });
    return out;
  }

  // Atomic multi-key batch. Ops are routed to their shards; a batch
  // confined to one shard commits through that shard's apply_batch
  // unchanged (single commit version, fully atomic). A cross-shard batch
  // holds the gates of every involved shard in ascending shard order while
  // the per-shard sub-batches commit, so no multi-shard reader or batch
  // observes it partially applied. Each op's `applied` field is written
  // back; returns the number of presence-changing ops.
  std::size_t apply_batch(std::vector<BatchOp>& ops) {
    if (ops.empty()) return 0;
    // Partition op indices by shard.
    std::vector<std::pair<std::size_t, std::uint32_t>> by_shard;  // (shard, i)
    by_shard.reserve(ops.size());
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
      by_shard.emplace_back(shard_index(ops[i].key), i);
    }
    std::stable_sort(by_shard.begin(), by_shard.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const std::size_t first_shard = by_shard.front().first;
    const std::size_t last_shard = by_shard.back().first;
    txn::ShardGates::Guard gate_guard;
    if (first_shard != last_shard) {
      // Lock only involved shards, ascending (the span may have holes);
      // the ordered acquisition lives in the shared lock manager.
      gate_guard = gates_.lock_span(first_shard, last_shard, [&](std::size_t s) {
        return std::any_of(by_shard.begin(), by_shard.end(),
                           [&](const auto& p) { return p.first == s; });
      });
    }
    std::size_t applied = 0;
    std::size_t i = 0;
    std::vector<BatchOp> sub;
    while (i < by_shard.size()) {
      const std::size_t s = by_shard[i].first;
      sub.clear();
      const std::size_t begin = i;
      for (; i < by_shard.size() && by_shard[i].first == s; ++i) {
        sub.push_back(ops[by_shard[i].second]);
      }
      applied += shards_[s]->apply_batch(sub);
      for (std::size_t j = begin; j < i; ++j) {
        ops[by_shard[j].second].applied = sub[j - begin].applied;
      }
    }
    return applied;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {  // quiescent
    for (const auto& s : shards_) s->for_each(fn);
  }

  bool validate(std::string* err = nullptr) const {
    for (const auto& s : shards_) {
      if (!s->validate(err)) return false;
    }
    return true;
  }

  // Aggregate event counters over every shard (each shard owns its own
  // stats::Registry; see src/stats/stats.h).
  stats::Snapshot stats_snapshot() const {
    stats::Snapshot agg{};
    for (const auto& s : shards_) agg += s->stats_registry().snapshot();
    return agg;
  }

  // Aggregate node-allocator counters over every shard (each shard owns its
  // own allocator instance; see alloc/allocator.h).
  alloc::AllocatorStats allocator_stats() const {
    alloc::AllocatorStats agg;
    for (const auto& s : shards_) agg += s->allocator_stats();
    return agg;
  }

 private:
  std::size_t shard_index(K k) const noexcept {
    const auto i = static_cast<std::size_t>(k / span_);
    return i < shards_.size() ? i : shards_.size() - 1;
  }
  Shard& shard_for(K k) { return *shards_[shard_index(k)]; }

  // Lock the gates of every shard intersecting [lo, hi], ascending, iff the
  // interval spans more than one shard (txn::ShardGates owns the ordered
  // acquisition and the reverse-order release). Returns an empty guard for
  // the single-shard fast path.
  txn::ShardGates::Guard gate_span(K lo, K hi) {
    if (lo > hi) return {};
    const std::size_t first = shard_index(lo);
    const std::size_t last = shard_index(hi);
    if (first == last) return {};
    return gates_.lock_span(first, last);
  }

  template <class Body>
  void for_intersecting(K lo, K hi, Body&& body) {
    if (lo > hi) return;
    const std::size_t end = shard_index(hi);
    for (std::size_t i = shard_index(lo); i <= end; ++i) {
      const K shard_lo = static_cast<K>(i * span_);
      const K shard_hi = i + 1 == shards_.size()
                             ? std::numeric_limits<K>::max()
                             : static_cast<K>((i + 1) * span_ - 1);
      body(*shards_[i], lo > shard_lo ? lo : shard_lo,
           hi < shard_hi ? hi : shard_hi);
    }
  }

  const std::uint64_t span_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Per-shard gates, held (ascending) by multi-shard operations only; the
  // ordered-acquisition RAII lives in the shared lock manager
  // (txn/lock_mgr.h), same layer that orders the per-chunk locks.
  txn::ShardGates gates_;
};

}  // namespace sv::core
