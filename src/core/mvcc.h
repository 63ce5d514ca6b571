// Multiversioning support types for SkipVectorMap (docs/SNAPSHOTS.md).
//
// Jiffy-style per-chunk versioning (PAPERS.md, arXiv:2102.01044) adapted to
// the skip vector's fat-chunk layout: a single global commit version is
// bumped by every committed mutation, each data chunk remembers the commit
// version at which its current contents became valid (`mod_version`), and --
// only while a snapshot is registered -- writers push immutable pre-image
// records onto a short per-chunk version chain before overwriting the live
// state. Snapshot readers pinned at version v resolve each chunk either from
// its live state (mod_version <= v, one speculative read) or from the newest
// chain record with version <= v, and therefore never restart against
// writers.
//
// This header holds the map-independent pieces: the batch-op descriptor, the
// trailing-array version record, and the snapshot registry that pins active
// read versions (the writer side consults it to decide whether a pre-image
// must be preserved, and the pruner to decide how much of a chain is dead).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace sv::core::mvcc {

// ---- Batch operations ---------------------------------------------------------

enum class BatchOpKind : std::uint8_t {
  kPut,     // upsert: insert k -> v, or overwrite the value if k is present
  kRemove,  // erase k if present
};

// One element of an atomic batch. `applied` is an out-parameter written by
// apply_batch: true when a put inserted a NEW key or a remove erased an
// existing key (an overwriting put and a missing remove report false).
template <class K, class V>
struct BatchOp {
  K key{};
  V value{};
  BatchOpKind kind = BatchOpKind::kPut;
  bool applied = false;

  static BatchOp put(K k, V v) noexcept {
    return BatchOp{k, v, BatchOpKind::kPut, false};
  }
  static BatchOp remove(K k) noexcept {
    return BatchOp{k, V{}, BatchOpKind::kRemove, false};
  }
};

// ---- Version records ----------------------------------------------------------

// An immutable full-state record of one data chunk's key sub-range: the
// contents that became valid at commit version `version` and stayed valid
// until the next-newer record (or the live state). Allocated as one block
// [header | K[count] | V[count]] through the owning map's allocator;
// `bytes` is retained for sized deallocation. Published with a release store
// of the chain head and read with acquire loads; the payload is never
// modified after publication, so plain (non-atomic) arrays are safe. The
// only post-publication write is chain truncation during pruning, which
// stores through the atomic `next` of the cut record. The records it
// detaches may still be under a walker that loaded the chain before a fold,
// so they are retired and outlive every walk that could reach them
// (docs/SNAPSHOTS.md, "Pruning").
template <class K, class V>
struct VersionRecord {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

  std::uint64_t version;
  std::atomic<VersionRecord*> next;  // next-older record (descending version)
  std::uint32_t count;
  std::uint32_t bytes;

  static constexpr std::size_t align_up(std::size_t n, std::size_t a) noexcept {
    return (n + a - 1) / a * a;
  }
  static constexpr std::size_t keys_offset() noexcept {
    return align_up(sizeof(VersionRecord), alignof(K));
  }
  static constexpr std::size_t vals_offset(std::uint32_t n) noexcept {
    return align_up(keys_offset() + sizeof(K) * n, alignof(V));
  }
  static constexpr std::size_t bytes_for(std::uint32_t n) noexcept {
    return vals_offset(n) + sizeof(V) * n;
  }

  K* keys() noexcept {
    return reinterpret_cast<K*>(reinterpret_cast<char*>(this) + keys_offset());
  }
  V* vals() noexcept {
    return reinterpret_cast<V*>(reinterpret_cast<char*>(this) +
                                vals_offset(count));
  }
  const K* keys() const noexcept {
    return const_cast<VersionRecord*>(this)->keys();
  }
  const V* vals() const noexcept {
    return const_cast<VersionRecord*>(this)->vals();
  }
};

// ---- Snapshot registry --------------------------------------------------------

// Fixed array of pinned read versions. A slot holds pinned_version + 1 (0 =
// free). The claim/commit-read protocol (all seq_cst) guarantees that any
// writer whose commit version c exceeds a reader's pinned v observes the
// reader's slot before deciding whether to preserve a pre-image:
//
//   reader:  active++ ; slot := floor+1 ; v := load(commit_version)
//   writer:  c := ++commit_version ; if (active != 0) push pre-image
//
// If c > v, the reader's load of commit_version missed the writer's RMW, so
// in the seq_cst total order the load -- and everything sequenced before it,
// including the slot store and the active increment -- precedes the RMW,
// which precedes the writer's registry check. A full registry is reported to
// the caller, which falls back to the locked (non-versioned) snapshot path.
class SnapshotRegistry {
 public:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::uint64_t kNoFloor =
      std::numeric_limits<std::uint64_t>::max();

  // Claims a free slot pinning `pinned` (stored as pinned + 1); returns the
  // slot index or -1 when every slot is taken. A successful claim MUST be
  // followed by exactly one refine() -- the begin/end registration counters
  // (see needs_preimage) treat claim..refine as an open registration whose
  // final pin is not yet knowable.
  int try_claim(std::uint64_t pinned) noexcept {
    reg_begin_.fetch_add(1, std::memory_order_seq_cst);
    active_.fetch_add(1, std::memory_order_seq_cst);
    for (std::size_t i = 0; i < kSlots; ++i) {
      std::uint64_t expected = 0;
      if (slots_[i].compare_exchange_strong(expected, pinned + 1,
                                            std::memory_order_seq_cst)) {
        return static_cast<int>(i);
      }
    }
    active_.fetch_sub(1, std::memory_order_seq_cst);
    reg_end_.fetch_add(1, std::memory_order_seq_cst);
    return -1;
  }

  // Raises a claimed slot's pin to the refined (exact) snapshot version.
  // Raising is always safe: commits that happened before the refinement
  // already consulted the conservative pin. After this, the slot's value is
  // final until release() -- which is what needs_preimage relies on.
  void refine(int slot, std::uint64_t pinned) noexcept {
    slots_[static_cast<std::size_t>(slot)].store(pinned + 1,
                                                 std::memory_order_seq_cst);
    reg_end_.fetch_add(1, std::memory_order_seq_cst);
  }

  // True when some registered snapshot may still need the pre-image of the
  // state most recently stamped mod_version = m -- that record is only ever
  // the resolution target of a reader pinned at p >= m, so when every
  // refined pin is < m the push can be skipped entirely. This is what keeps
  // version chains bounded under a long-pinned view: after one record lands
  // at-or-below the pin, every later commit on that chunk skips.
  //
  // Callers hold the chunk's write lock and have already reserved their
  // commit version c. Soundness of a `false` answer:
  //  - A scanned slot is only trusted when no registration was in flight
  //    across the scan (begin/end counters equal before, begin unchanged
  //    after). Then every scanned value is a refined, final pin; pins only
  //    appear by a fresh claim, which the post-scan begin re-read catches.
  //  - A registration missed by the scan claimed after it in seq_cst order,
  //    so its refine-load of commit_version sees >= c; that reader resolves
  //    from live state or from pre-images pushed by commits later than c
  //    (whose own needs_preimage sees its pin), never from this record.
  bool needs_preimage(std::uint64_t m) const noexcept {
    const std::uint64_t b0 = reg_begin_.load(std::memory_order_seq_cst);
    if (b0 != reg_end_.load(std::memory_order_seq_cst)) return true;
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::uint64_t s = slots_[i].load(std::memory_order_seq_cst);
      if (s != 0 && s - 1 >= m) return true;
    }
    return reg_begin_.load(std::memory_order_seq_cst) != b0;
  }

  void release(int slot) noexcept {
    slots_[static_cast<std::size_t>(slot)].store(0, std::memory_order_seq_cst);
    active_.fetch_sub(1, std::memory_order_seq_cst);
  }

  // Number of registered snapshots (including claims in flight). Writers
  // skip all pre-image work when this is 0.
  std::uint32_t active() const noexcept {
    return active_.load(std::memory_order_seq_cst);
  }

  // Smallest pinned version across claimed slots, or kNoFloor when none.
  // Chain records strictly older than the newest record at-or-below this
  // floor serve no possible reader.
  std::uint64_t floor() const noexcept {
    std::uint64_t f = kNoFloor;
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::uint64_t s = slots_[i].load(std::memory_order_seq_cst);
      if (s != 0 && s - 1 < f) f = s - 1;
    }
    return f;
  }

 private:
  std::atomic<std::uint64_t> slots_[kSlots]{};
  std::atomic<std::uint32_t> active_{0};
  // Registrations begun (claim) / finished (refine, or failed claim). Equal
  // counters bracket a scan in which every non-zero slot is a final pin.
  std::atomic<std::uint64_t> reg_begin_{0};
  std::atomic<std::uint64_t> reg_end_{0};
};

}  // namespace sv::core::mvcc
