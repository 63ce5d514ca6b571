// sv::txn lock manager: the chunk-granularity NO_WAIT two-phase-locking
// protocol shared by every multi-key mutation in the repo. Extracted from
// SkipVectorMap::try_apply_batch (which used to inline it) so that
// apply_batch, the cross-shard gates in core/sharded.h, and the user-facing
// Txn handle (txn/txn.h) all run on ONE code path. docs/TRANSACTIONS.md is
// the narrative companion.
//
// Protocol summary (2PLSF direction, NO_WAIT flavor):
//   - Growing phase: the floor data chunk of every accessed key is
//     write-locked in ascending key order -- a global acquisition order, so
//     two passes can never deadlock. A pinned read (Txn::get kept the
//     chunk that answered it, with the word it validated at) locks that
//     chunk with one try_upgrade from that word; success validates the
//     read. Any other key steps at most kMaxLockHops chunks right from the
//     last held lock (MapAccess::lock_floor_from); past that, or at a chunk
//     it cannot read, it is re-sought through the index
//     (MapAccess::lock_floor_descent, also used for the first key), so a
//     pass costs O(keys * log n). Nothing ever waits: a locked word on the
//     seek path, or a locked or frozen floor chunk, aborts the pass.
//   - Validation: the other optimistic reads (Txn's read set) are re-read
//     in the locked chunks; a mismatch aborts before anything mutates.
//   - Commit: the whole write set goes through ONE of the map's chunk
//     commits (one commit version; pre-images staged iff snapshots are
//     pinned; every touched piece stamped); each chunk absorbs its ops;
//     locks release in reverse order (shrinking phase).
//   - Abort: locks release in reverse, nothing was mutated (mutations are
//     deferred to the commit step), the caller backs off and retries.
//
// This header deliberately does NOT include core/skip_vector.h: MapAccess
// is a friend template of SkipVectorMap (forward-declared there), so the
// map's private navigation/mutation primitives are reached through it and
// the include arrow points core -> txn only.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/mvcc.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"
#include "sync/backoff.h"

namespace sv::txn {

namespace mvcc = ::sv::core::mvcc;

// Bounded exponential-backoff retry policy for NO_WAIT aborts. Retrying
// forever (max_attempts == 0) matches apply_batch's historical semantics;
// bounded callers (e.g. interactive transactions) give up and surface the
// conflict after max_attempts re-executions.
struct RetryPolicy {
  std::uint32_t max_attempts = 0;  // 0 = retry until committed
  std::uint32_t max_spins = 4096;  // truncation for the exponential backoff
};

// MapAccess<Map>: the single privileged bridge into SkipVectorMap's private
// lock/navigation/mutation primitives (it is a friend template of the map).
// Everything the lock manager and Txn need from the map flows through these
// static wrappers, which keeps the privilege surface explicit and greppable.
template <class Map>
struct MapAccess {
  using Node = typename Map::NodeBase;
  using Ctx = typename Map::Ctx;
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  using Op = typename Map::BatchOp;
  using Lock = typename Map::Lock;
  using Word = typename Map::Word;
  // The map's operation scope and chunk-commit type (core/skip_vector.h):
  // every transaction-layer operation runs in one OpScope, and a commit
  // pass writes through one Commit.
  using OpScope = typename Map::OpScope;
  using Commit = typename Map::ChunkCommit;

  // ---- Chunk inspection (callable only under the chunk's write lock or
  // with the chunk otherwise pinned) ---------------------------------------

  static std::uint32_t size(Map& m, Node* n) noexcept {
    return m.node_size(n);
  }
  static K min_key(Map& m, Node* n) noexcept { return m.node_min_key(n); }
  static bool is_head(Node* n) noexcept { return n->is_head; }
  static bool is_orphan(Node* n) noexcept {
    return Lock::is_orphan(n->lock.load_relaxed());
  }

  // Point read inside a locked data chunk (used to validate a Txn's read
  // set: the lock freezes the chunk's contents, so this is the committed
  // state at the pass's serialization point).
  static std::optional<V> read_in_chunk(Map& m, Node* chunk, K k) {
    return m.as_data(chunk)->vec.get(k);
  }

  // ---- Pinned reads (hazard-pointer maps) ---------------------------------

  using Trav = typename Map::Trav;

  // Txn::get's read: lookup()'s body, which also reports the data chunk
  // that answered and the word its read validated at. The chunk is copied
  // into pin slot `pin` while its traversal slot still protects it (until
  // the OpScope ends), so it stays allocated, and its word safe to compare,
  // until the Txn releases its pins.
  static std::optional<V> lookup_pinned(Map& m, Ctx& ctx, K k, int pin,
                                        Node** chunk, Word* word) {
    OpScope op(m, ctx);
    Trav at;
    std::optional<V> v = m.lookup_at(op.ctx, k, at);
    op.ctx.pin(pin, at.node);
    *chunk = at.node;
    *word = at.ver;
    return v;
  }

  // True when this pass holds n, locked from word w: until its release a
  // held lock's word is the word it was upgraded from plus the locked bit
  // (the growing phase writes nothing else).
  static bool held_from(Node* n, Word w) noexcept {
    return n->lock.load_relaxed() == (w | Lock::kLockedBit);
  }

  // ---- Lock acquisition (the 2PL growing-phase primitives) ---------------

  // How a floor search for one key ended.
  enum class Seek : std::uint8_t {
    kLocked,  // *out is k's floor chunk, write-locked by this pass
    kReseek,  // the bounded step gave up: seek k through the index instead
    kAbort,   // NO_WAIT conflict or transient state: abort the pass
  };

  // Chunks the step from the last held lock may cross before the key is
  // re-sought from the head. A descent costs a few hops: a key one or two
  // chunks on is cheaper to step to, while a spread key wastes at most
  // these hops before its seek (and an unbounded walk costs O(key span)).
  static constexpr std::uint32_t kMaxLockHops = 2;

  // True when `k` still belongs to locked chunk `c` (no better floor to its
  // right). c's lock pins its successor; a successor's minimum never
  // decreases, so a positive answer stays valid while we hold the lock.
  // The successor is read in a read section that does not wait: a writer
  // rewriting it under its lock can show a minimum larger than in any
  // committed state, so a locked or changed successor answers "not
  // covered" and lock_floor_from, which handles a locked successor,
  // decides.
  static bool covers(Map& m, Node* c, K k) {
    Node* next = c->next.load(std::memory_order_acquire);
    if (next == nullptr) return true;
    const Word w = next->lock.read_begin_no_wait();
    if (Lock::is_locked(w)) return false;
    const bool below = m.node_size(next) > 0 && k < m.node_min_key(next);
    return below && next->lock.validate(w);
  }

  // The traversal position of a chunk this pass holds: its lock pins it,
  // so it needs no hazard slot, and its word validates until release.
  static Trav held_at(Node* n) noexcept {
    return Trav{n, n->lock.load_relaxed(), 0};
  }

  // NO_WAIT seek for k's floor chunk, used for a pass's first key and for
  // every re-seek. The index descent is the map's own traversal in no-wait
  // mode: a locked index node aborts the pass (the pass may hold locks, so
  // it must not wait), frozen ones stay readable. From the data chunk the
  // index routes to, lock_floor_from walks the orphan run to k's floor.
  // If the routed chunk is one this pass holds (k's floor is in an orphan
  // run that an earlier key's floor already entered), the walk starts from
  // the last held lock instead, which is at or left of k's floor: aborting
  // on our own lock would repeat on every retry.
  static Seek lock_floor_descent(Map& m, Ctx& ctx,
                                 const std::vector<Node*>& held, K k,
                                 Node** out) {
    const auto from_last_lock = [&] {
      return lock_floor_from(m, ctx, held, held_at(held.back()), k,
                             /*bounded=*/false, out);
    };
    // Without index layers every key routes to the head data chunk.
    if (m.head_->layer == 0 && !held.empty()) return from_last_lock();
    Trav t = m.template begin_traversal<true>(ctx);
    if (t.node == nullptr) return Seek::kAbort;
    while (t.node->layer > 0) {
      if (!m.template traverse_right<true>(ctx, t, k, /*mutator=*/false)) {
        return Seek::kAbort;
      }
      Node* down = nullptr;
      bool exact = false;
      if (!m.index_down(t, k, &down, &exact)) return Seek::kAbort;
      if (t.node->layer == 1 &&
          std::find(held.begin(), held.end(), down) != held.end()) {
        return from_last_lock();
      }
      if (!m.template exchange_down<true>(ctx, t, down)) return Seek::kAbort;
    }
    return lock_floor_from(m, ctx, held, t, k, /*bounded=*/false, out);
  }

  // Walks the data layer right from `at` -- the last held lock, or the
  // chunk a descent routed to -- to k's floor chunk and write-locks it
  // without waiting. Each step re-validates the chunk it leaves after
  // reading the successor's word, as traverse_right does: a merge that
  // retired the successor in between has bumped that chunk, whereas the
  // retired chunk's own word never changes again and would validate,
  // leading the walk onto its retired_next() sentinel. Empty chunks
  // (demoted or drained, awaiting an orphan merge) are hopped over rather
  // than aborted on: an empty chunk that no point operation happens to
  // cross would otherwise wedge every pass whose keys straddle it. Frozen
  // chunks are read like any other; only locking a frozen floor fails.
  //
  // A locked successor is not needed when k lies inside the chunk the
  // walk stands on. Otherwise, bounded (the step from the last held lock):
  // after kMaxLockHops hops, or at a chunk that is locked or changes under
  // the walk, return kReseek -- the pass may not even need that chunk.
  // Unbounded (after a seek): the walk is on the orphan run below the
  // routed chunk, and such a chunk aborts the pass, unless the pass holds
  // it, in which case the walk goes on from the last held lock.
  static Seek lock_floor_from(Map& m, Ctx& ctx, const std::vector<Node*>& held,
                              Trav at, K k, bool bounded, Node** out) {
    std::uint32_t hops = 0;
    const auto done = [&](Seek s) {
      stats::count(stats::Counter::kTxnLockHops, hops);
      return s;
    };
    const Seek fail = bounded ? Seek::kReseek : Seek::kAbort;
    // `best`: k's floor so far -- the start, or the rightmost non-empty
    // chunk stepped onto (whose min is <= k). Its word is the locked one
    // iff the pass holds it. Hazard slot 2 keeps it while the walk probes
    // further; the final try_upgrade(best_ver) rejects any change since.
    Node* best = at.node;
    Word best_ver = at.ver;
    ctx.protect(2, best);
    std::uint32_t sz = m.node_size(at.node);  // sz > 0: at.node is best
    for (;;) {
      Node* next = at.node->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        // Validate "at.node is last" before letting it settle the floor.
        if (!at.node->lock.validate(at.ver)) return done(fail);
        break;
      }
      const int nslot = Map::other_slot(at.slot);
      ctx.protect(nslot, next);
      // at.node unchanged: next is its successor, protected before any
      // merge could retire it.
      if (!at.node->lock.validate(at.ver)) return done(fail);
      SV_FAULT_POINT(debug::Point::kTxnLockStep);
      const Word nver = next->lock.read_begin_no_wait();
      if (Lock::is_locked(nver)) {
        // k inside best's range: best is the floor, next is not needed.
        if (sz > 0 && !(m.node_max_key(at.node) < k) &&
            at.node->lock.validate(at.ver)) {
          break;
        }
        if (bounded ||
            std::find(held.begin(), held.end(), next) == held.end()) {
          return done(fail);
        }
        at = held_at(held.back());
        best = at.node;
        best_ver = at.ver;
        sz = m.node_size(at.node);
        continue;
      }
      // Re-validate: next was still linked when nver was read.
      if (!at.node->lock.validate(at.ver)) return done(fail);
      const std::uint32_t nsz = m.node_size(next);
      if (nsz > 0 && k < m.node_min_key(next)) {
        // Validate the basis for stopping before trusting it.
        if (!next->lock.validate(nver)) return done(fail);
        break;
      }
      if (bounded && hops == kMaxLockHops) return done(Seek::kReseek);
      ctx.drop(at.slot);
      at = Trav{next, nver, nslot};
      sz = nsz;
      ++hops;
      if (sz > 0) {
        best = next;
        best_ver = nver;
        ctx.protect(2, next);
      }
    }
    if (!Lock::is_locked(best_ver) && !best->lock.try_upgrade(best_ver)) {
      return done(fail);
    }
    *out = best;
    return done(Seek::kLocked);
  }

  // ---- Commit-path map primitives ----------------------------------------

  static void apply_chunk_ops(Map& m, Commit& commit, Node* chunk, Op* ops,
                              const std::vector<std::uint32_t>& order,
                              std::size_t begin, std::size_t end,
                              std::vector<Node*>& locked, std::size_t& applied,
                              std::int64_t& delta) {
    m.apply_chunk_ops(commit, chunk, ops, order, begin, end, locked, applied,
                      delta);
  }
  static void demote_tower(Map& m, Ctx& ctx, K k) { m.demote_tower(ctx, k); }

  // ---- Bookkeeping -------------------------------------------------------

  static Ctx thread_ctx(Map& m) { return m.reclaimer_.thread_ctx(); }
  static void note_size_delta(Map& m, std::int64_t delta) noexcept {
    if (delta != 0) m.approx_size_.fetch_add(delta, std::memory_order_relaxed);
  }
};

// Owned set of write-locked chunks of one map: the RAII "lock set" of the
// growing phase. Locks release in REVERSE acquisition order (shrinking
// phase), automatically on destruction if the pass aborted early.
template <class Map>
class ChunkLockSet {
 public:
  using Node = typename MapAccess<Map>::Node;

  ChunkLockSet() = default;
  ~ChunkLockSet() { release_all(); }
  ChunkLockSet(const ChunkLockSet&) = delete;
  ChunkLockSet& operator=(const ChunkLockSet&) = delete;

  bool empty() const noexcept { return locked_.empty(); }
  Node* back() const noexcept { return locked_.back(); }
  void push(Node* n) { locked_.push_back(n); }
  std::vector<Node*>& nodes() noexcept { return locked_; }

  void release_all() noexcept {
    for (auto it = locked_.rbegin(); it != locked_.rend(); ++it) {
      (*it)->lock.release();
    }
    locked_.clear();
  }

 private:
  std::vector<Node*> locked_;
};

// One optimistic read to validate at commit: the key, whether it was
// observed present, and (if present) the observed value. A pinned read
// also carries the data chunk that answered it, which the reader keeps
// hazard-protected until the commit returns, and the chunk's seqlock word
// the read validated at; chunk == nullptr means not pinned. Entries handed
// to LockMgr::try_commit must be sorted by key and unique.
template <class K, class V, class Node>
struct ReadValidation {
  K key;
  bool present;
  V value;
  Node* chunk = nullptr;
  std::uint64_t word = 0;
};

enum class PassStatus : std::uint8_t {
  kCommitted,       // writes applied at one commit version, locks released
  kLockConflict,    // NO_WAIT acquisition failed (or transient floor state)
  kValidationFail,  // an optimistic read no longer holds: true conflict
  kNeedDemote,      // a remove targets a towered key: demote, then retry
};

// LockMgr<Map>: the shared two-phase commit algorithm. One pass =
// growing phase (ascending NO_WAIT floor locks over the union of read and
// write keys) + read-set validation + single-version commit + reverse
// release. apply_batch passes an empty read set; Txn::commit passes its
// recorded reads.
template <class Map>
struct LockMgr {
  using MA = MapAccess<Map>;
  using Node = typename MA::Node;
  using Ctx = typename MA::Ctx;
  using K = typename MA::K;
  using V = typename MA::V;
  using Op = typename MA::Op;
  using Read = ReadValidation<K, V, Node>;

  struct PassResult {
    PassStatus status = PassStatus::kLockConflict;
    K demote_key{};          // valid iff status == kNeedDemote
    std::size_t applied = 0;  // presence-changing ops (iff committed)
    std::int64_t delta = 0;   // net size change (iff committed)
  };

  // One no-wait pass. `order` indexes `ops` in stable ascending-key order
  // (same-key ops keep submission order); `reads` is sorted by key, unique.
  // On success every op has been applied at a single commit version, each
  // op's `applied` field is written, and all locks are released; on failure
  // all locks are released, nothing was mutated, and the caller backs off
  // (after demoting the towered key when kNeedDemote).
  static PassResult try_commit(Map& m, Ctx& ctx, Op* ops,
                               const std::vector<std::uint32_t>& order,
                               std::span<const Read> reads) {
    PassResult res;
    ChunkLockSet<Map> locks;
    auto& locked = locks.nodes();
    // Per locked chunk: the half-open run of sorted-op positions it absorbs
    // (kNoRun = read-only chunk, left untouched by the commit step).
    constexpr std::uint32_t kNoRun = ~std::uint32_t{0};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    // Per read: the position in `locked` of the chunk to re-read it in, or
    // kPinnedValid for a pinned read whose chunk the pass locked unchanged.
    constexpr std::uint32_t kPinnedValid = ~std::uint32_t{0};
    std::vector<std::uint32_t> read_chunk(reads.size());
    using Seek = typename MA::Seek;

    auto fail = [&](PassStatus s) {
      locks.release_all();
      ctx.drop_all();
      res.status = s;
      if (s == PassStatus::kLockConflict) {
        stats::count(stats::Counter::kTxnLockFail);
      }
      return res;
    };

    // Takes a chunk the pass just locked for k, verifying floor-ness under
    // the lock: a non-head floor chunk must hold a minimum <= k (otherwise
    // a put would break the index entry's min invariant; transient states
    // abort instead). So every held chunk passed this for the key that
    // took it, and so for every larger key the chunk is the floor of.
    auto push = [&](Node* chunk, K k) -> bool {
      locks.push(chunk);
      runs.emplace_back(kNoRun, kNoRun);
      return chunk->is_head ||
             (MA::size(m, chunk) > 0 && !(k < MA::min_key(m, chunk)));
    };

    // Lock k's floor chunk unless the last held lock already covers it:
    // a short step from the last held lock, else a seek through the index.
    // Returns false on a NO_WAIT conflict or a transient floor state.
    auto ensure_locked = [&](K k) -> bool {
      if (!locked.empty() && MA::covers(m, locked.back(), k)) return true;
      Node* chunk = nullptr;
      Seek s = Seek::kReseek;
      if (!locked.empty()) {
        s = MA::lock_floor_from(m, ctx, locked, MA::held_at(locked.back()),
                                k, /*bounded=*/true, &chunk);
      }
      if (s == Seek::kReseek) {
        s = MA::lock_floor_descent(m, ctx, locked, k, &chunk);
      }
      if (s != Seek::kLocked) return false;
      // A search that settled back on the last held lock (only empty
      // chunks up to the first min > k) needs no floor check: the chunk
      // passed it for an earlier, smaller key.
      return (!locked.empty() && chunk == locked.back()) || push(chunk, k);
    };

    // The fast path of a pinned read r (see ReadValidation): kLocked when
    // r's chunk is exactly as the read saw it -- either the last held
    // lock, locked from r's word, or now locked from r's word by
    // try_upgrade. Then the read holds and needs no covers(), step, seek
    // or value check. Soundness (docs/TRANSACTIONS.md, commit step 1):
    // every change to a data chunk's keys, values, next pointer or orphan
    // bit happens under its write lock, whose release bumps the sequence
    // number; freeze and thaw flip only the frozen bit and write no
    // payload. So a chunk still at r's word holds r's key exactly as r saw
    // it, and is still the key's floor: a split, a merge, a tower split,
    // or an insert below the successor's minimum would each have written
    // it. covers() relies on the same argument. The pin is what keeps the
    // chunk allocated, and its word readable, after get() returned.
    // kReseek: r is not pinned, or its chunk changed (or is held from
    // another word), so r takes the ordinary path. kAbort: the chunk
    // failed push()'s floor check.
    auto lock_pinned = [&](const Read& r) -> Seek {
      if (r.chunk == nullptr) return Seek::kReseek;
      if (!locked.empty() && r.chunk == locked.back()) {
        return MA::held_from(r.chunk, r.word) ? Seek::kLocked : Seek::kReseek;
      }
      if (!r.chunk->lock.try_upgrade(r.word)) return Seek::kReseek;
      return push(r.chunk, r.key) ? Seek::kLocked : Seek::kAbort;
    };

    // Phase 1: growing -- ascending over the union of write-op keys and
    // read keys, lock each key's floor chunk exactly once.
    const std::size_t n_ops = order.size();
    std::size_t oi = 0;  // position in sorted-op space
    std::size_t ri = 0;  // position in the (sorted, unique) read set
    while (oi < n_ops || ri < reads.size()) {
      const bool take_read =
          oi >= n_ops ||
          (ri < reads.size() && !(ops[order[oi]].key < reads[ri].key));
      if (take_read) {
        const Seek pinned = lock_pinned(reads[ri]);
        if (pinned == Seek::kAbort) return fail(PassStatus::kLockConflict);
        if (pinned == Seek::kLocked) {
          read_chunk[ri] = kPinnedValid;
        } else if (ensure_locked(reads[ri].key)) {
          read_chunk[ri] = static_cast<std::uint32_t>(locked.size() - 1);
        } else {
          return fail(PassStatus::kLockConflict);
        }
        ++ri;
      } else {
        const K k = ops[order[oi]].key;
        // A key the ladder just handled as a read lies in the last held
        // lock, that read's chunk, which passed the floor check above.
        const bool read_key = ri > 0 && reads[ri - 1].key == k;
        if (!read_key && !ensure_locked(k)) {
          return fail(PassStatus::kLockConflict);
        }
        Node* chunk = locked.back();
        if (ops[order[oi]].kind == mvcc::BatchOpKind::kRemove &&
            !chunk->is_head && !MA::is_orphan(chunk) &&
            MA::size(m, chunk) > 0 && MA::min_key(m, chunk) == k) {
          // k is the minimum of a non-orphan chunk: it may have a tower in
          // the index layers, and erasing it here would dangle those
          // entries. Demote outside the pass, then retry.
          res.demote_key = k;
          locks.release_all();
          ctx.drop_all();
          res.status = PassStatus::kNeedDemote;
          return res;
        }
        auto& run = runs.back();
        if (run.first == kNoRun) run.first = static_cast<std::uint32_t>(oi);
        run.second = static_cast<std::uint32_t>(oi + 1);
        ++oi;
      }
    }

    // Validation: every optimistic read must still hold against the locked
    // chunks. The locks freeze the committed state, so the whole read set
    // is checked at one serialization point; any mismatch is a real
    // conflict (a committed writer got between the read and this commit).
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (read_chunk[i] == kPinnedValid) continue;
      const std::optional<V> now =
          MA::read_in_chunk(m, locked[read_chunk[i]], reads[i].key);
      const bool still_holds = reads[i].present
                                   ? (now.has_value() && *now == reads[i].value)
                                   : !now.has_value();
      if (!still_holds) return fail(PassStatus::kValidationFail);
    }

    // Phase 2: commit. All floor chunks are locked; ONE commit covers the
    // write set, and each chunk absorbs its ops through it. Speculative
    // readers cannot validate against any touched chunk until its release,
    // and versioned readers at v < c use the pre-images -- so the whole
    // write set is atomic. Read-only chunks are neither stamped nor
    // pre-imaged: their contents do not change.
    if (n_ops > 0) {
      SV_FAULT_POINT(debug::Point::kBatchCommit);
      typename MA::Commit commit(m);
      const std::size_t n_chunks = runs.size();  // splits append past this
      for (std::size_t ci = 0; ci < n_chunks; ++ci) {
        if (runs[ci].first == kNoRun) continue;
        MA::apply_chunk_ops(m, commit, locked[ci], ops, order, runs[ci].first,
                            runs[ci].second, locked, res.applied, res.delta);
      }
    }
    locks.release_all();
    ctx.drop_all();
    res.status = PassStatus::kCommitted;
    return res;
  }

  struct BatchOutcome {
    std::size_t applied = 0;
    std::int64_t delta = 0;
  };

  // apply_batch's engine: sort once, then retry the commit pass until it
  // lands (batches carry no read set, so only lock conflicts and towered
  // removes can abort -- both are transient, hence the unbounded retry).
  static BatchOutcome run_batch(Map& m, Ctx& ctx, Op* ops, std::size_t n) {
    // Stable key order: lock acquisition order for deadlock freedom, and
    // same-key ops keep their submission order.
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ops[a].key < ops[b].key;
                     });
    sync::Backoff backoff;
    for (;;) {
      const PassResult r = try_commit(m, ctx, ops, order, {});
      if (r.status == PassStatus::kCommitted) {
        return BatchOutcome{r.applied, r.delta};
      }
      stats::count(stats::Counter::kBatchAborts);
      if (r.status == PassStatus::kNeedDemote) {
        // A remove targets a towered key: demote its tower (a benign
        // structural op -- the key stays present) outside the locking
        // pass, then retry the batch.
        MA::demote_tower(m, ctx, r.demote_key);
      }
      backoff.pause();
    }
  }
};

// Ordered gate set over a fixed array of shard mutexes: the cross-shard
// half of the lock manager. Multi-shard operations lock the gates of every
// involved shard in ascending shard order (the same deadlock-freedom
// argument as the ascending-key chunk locks); single-shard operations never
// touch a gate. Guards release in reverse order on destruction.
class ShardGates {
 public:
  explicit ShardGates(std::size_t n) {
    gates_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      gates_.push_back(std::make_unique<std::mutex>());
    }
  }

  class Guard {
   public:
    Guard() = default;
    Guard(Guard&&) = default;
    Guard& operator=(Guard&&) = default;
    bool holds_any() const noexcept { return !held_.empty(); }

   private:
    friend class ShardGates;
    std::vector<std::unique_lock<std::mutex>> held_;
  };

  // Lock the gates of shards [first, last] for which `involved` returns
  // true, ascending. Callers use this only for spans covering >= 2 involved
  // shards; a span of one (or zero) involved shards returns an empty guard
  // by construction of the predicate loop, preserving the single-shard
  // fast path ONLY if the caller pre-filters -- so callers should skip the
  // call entirely when first == last.
  template <class Pred>
  Guard lock_span(std::size_t first, std::size_t last, Pred&& involved) {
    Guard g;
    g.held_.reserve(last - first + 1);
    for (std::size_t s = first; s <= last && s < gates_.size(); ++s) {
      if (involved(s)) g.held_.emplace_back(*gates_[s]);
    }
    return g;
  }

  Guard lock_span(std::size_t first, std::size_t last) {
    return lock_span(first, last, [](std::size_t) { return true; });
  }

  std::size_t size() const noexcept { return gates_.size(); }

 private:
  // Heap-allocated so the owning container stays movable.
  std::vector<std::unique_ptr<std::mutex>> gates_;
};

}  // namespace sv::txn
