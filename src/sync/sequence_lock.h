// SequenceLock: the paper's per-node synchronization word (Listing 1).
//
// A 64-bit word packs:
//   bit 0        isLocked  -- write lock held
//   bit 1        isOrphan  -- node has no parent entry in the layer above
//   bit 2        isFrozen  -- reserved by one Insert; readable, not lockable
//   bits 3..63   sequenceNumber
//
// Readers run speculatively: read_begin() -> relaxed data reads ->
// validate(). Writers acquire the lock bit; release() bumps the sequence
// number, which invalidates every in-flight speculative reader of the node.
//
// Memory-model notes (Boehm, "Can seqlocks get along with programming
// language memory models?", MSPC'12): node payloads are std::atomic and
// accessed relaxed inside read sections, so speculation is race-free by the
// letter of the standard. Writer-side, the lock-set operation is ordered
// before the payload writes with a release fence (fence-fence pairing with
// the acquire fence in validate()); reader-side, validate() issues an
// acquire fence before re-reading the word.
//
// The freeze protocol (paper §III-B): tryFreeze puts a node into a state
// where only the freezing thread may later lock it (upgrade_frozen) or
// return it to normal (thaw), while concurrent readers proceed. Freezing and
// thawing do not bump the sequence number: the bit flip alone makes
// concurrent validate()s fail conservatively, and since no payload write can
// happen without the lock bit (whose release always bumps the sequence), an
// ABA on the frozen bit cannot mask a payload change.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/hw.h"
#include "stats/stats.h"
#include "sync/backoff.h"

namespace sv::sync {

class SequenceLock {
 public:
  using Word = std::uint64_t;

  static constexpr Word kLockedBit = 1u;
  static constexpr Word kOrphanBit = 2u;
  static constexpr Word kFrozenBit = 4u;
  static constexpr Word kSeqIncrement = 8u;

  SequenceLock() noexcept : word_(0) {}
  explicit SequenceLock(bool orphan) noexcept
      : word_(orphan ? kOrphanBit : 0) {}

  SequenceLock(const SequenceLock&) = delete;
  SequenceLock& operator=(const SequenceLock&) = delete;

  static constexpr bool is_locked(Word w) noexcept { return w & kLockedBit; }
  static constexpr bool is_orphan(Word w) noexcept { return w & kOrphanBit; }
  static constexpr bool is_frozen(Word w) noexcept { return w & kFrozenBit; }

  // ---- Reader protocol ----------------------------------------------------

  // Begin a speculative read section. Spins while the write lock is held.
  // The returned word never has the locked bit set.
  Word read_begin() const noexcept {
    Word w = word_.load(std::memory_order_acquire);
    while (is_locked(w)) {
      // Off the fast path: only reached when a writer holds the lock.
      stats::count(stats::Counter::kSeqlockReadRetries);
      cpu_relax();
      w = word_.load(std::memory_order_acquire);
    }
    return w;
  }

  // read_begin() without the wait: the current word, whose locked bit is
  // set while a writer holds the lock (the caller must then not read on).
  // For callers that hold other locks, where waiting could deadlock.
  Word read_begin_no_wait() const noexcept {
    return word_.load(std::memory_order_acquire);
  }

  // The paper's "verify": true iff the word is still exactly `observed`.
  // Must be called after the relaxed payload reads it guards.
  bool validate(Word observed) const noexcept {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_relaxed) == observed;
  }

  // Current raw word, no ordering implied. For diagnostics / orphan checks
  // by a thread that holds the lock or the freeze.
  Word load_relaxed() const noexcept {
    return word_.load(std::memory_order_relaxed);
  }

  // ---- Writer protocol ----------------------------------------------------

  // The paper's "tryUpgrade": atomically move from the speculatively
  // observed word to locked, failing if anything changed -- including a
  // concurrent freeze (only the freezer may lock a frozen node).
  [[nodiscard]] bool try_upgrade(Word observed) noexcept {
    if (is_locked(observed) || is_frozen(observed)) return false;
    if (!word_.compare_exchange_strong(observed, observed | kLockedBit,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return false;
    }
    writer_entry_fence();
    return true;
  }

  // The paper's "tryFreeze": like try_upgrade but sets isFrozen. The caller
  // becomes the only thread able to lock (or thaw) the node; concurrent
  // readers are unaffected.
  [[nodiscard]] bool try_freeze(Word observed) noexcept {
    if (is_locked(observed) || is_frozen(observed)) return false;
    return word_.compare_exchange_strong(observed, observed | kFrozenBit,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed);
  }

  // Owner-only: return a frozen node to normal. No payload was written, so
  // the sequence number is not bumped (see header comment for why this ABA
  // is benign).
  void thaw() noexcept {
    const Word w = word_.load(std::memory_order_relaxed);
    word_.store(w & ~kFrozenBit, std::memory_order_release);
  }

  // Owner-only: frozen -> locked ("move node from frozen to locked",
  // Listing 3). While frozen, no other thread can modify the word, so a
  // plain store suffices.
  void upgrade_frozen() noexcept {
    const Word w = word_.load(std::memory_order_relaxed);
    word_.store((w & ~kFrozenBit) | kLockedBit, std::memory_order_relaxed);
    writer_entry_fence();
  }

  // The paper's "acquire": blocking lock. Spins while locked or frozen by
  // another thread, with truncated exponential backoff so a contended word
  // is not hammered by every waiter's CAS/load in lockstep.
  void acquire() noexcept {
    Backoff backoff;
    for (;;) {
      Word w = word_.load(std::memory_order_relaxed);
      if (!is_locked(w) && !is_frozen(w)) {
        if (word_.compare_exchange_weak(w, w | kLockedBit,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
          writer_entry_fence();
          return;
        }
      }
      stats::count(stats::Counter::kSeqlockAcquireRetries);
      backoff.pause();
    }
  }

  // The paper's "release": clear isLocked, bump the sequence number.
  // Returns the new (unlocked) word so the caller can continue traversing
  // speculatively from this node (TraverseRight line 38).
  Word release() noexcept {
    const Word w =
        ((word_.load(std::memory_order_relaxed) & ~kLockedBit) + kSeqIncrement);
    word_.store(w, std::memory_order_release);
    return w;
  }

  // Owner-only while locked: flip the orphan flag; published by release().
  void set_orphan_locked(bool orphan) noexcept {
    Word w = word_.load(std::memory_order_relaxed);
    w = orphan ? (w | kOrphanBit) : (w & ~kOrphanBit);
    word_.store(w, std::memory_order_relaxed);
  }

 private:
  // Order the lock-set before subsequent relaxed payload stores, pairing
  // with the acquire fence in validate(). Without this, a speculative
  // reader could observe a payload write yet still re-read the pre-lock
  // word and wrongly validate.
  static void writer_entry_fence() noexcept {
    std::atomic_thread_fence(std::memory_order_release);
  }

  std::atomic<Word> word_;
};

static_assert(sizeof(SequenceLock) == 8);

}  // namespace sv::sync
