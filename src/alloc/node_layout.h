// NodeLayout: the single source of truth for the in-memory shape of a skip
// vector node. A node is one contiguous allocation
//
//   [ NodeT header | keys: atomic<K>[cap] | vals: atomic<P>[cap] ]
//
// rounded up to a whole number of cache lines. The map's alloc_node
// (placement of the key/value arrays), its node_bytes accounting
// (Stats::bytes, sized deallocation on the reclaim path) and its arrival
// prefetch all read this one arithmetic, so they cannot drift. Everything
// is constexpr so tests/alloc_test.cc pins the invariants with
// static_asserts.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hw.h"

namespace sv::alloc {

constexpr std::size_t align_up(std::size_t x, std::size_t a) {
  return (x + a - 1) / a * a;
}

struct NodeLayout {
  std::size_t keys_off = 0;  // byte offset of the key array
  std::size_t vals_off = 0;  // byte offset of the value array
  std::size_t bytes = 0;     // total allocation size (cache-line multiple)

  // Layout for a node with `header_bytes` of header followed by `cap` keys
  // and `cap` values of the given sizes/alignments. The header is assumed
  // to need no more than cache-line alignment (allocations are cache-line
  // aligned; static_asserts in the map check the node types agree).
  static constexpr NodeLayout make(std::size_t header_bytes,
                                   std::size_t key_size,
                                   std::size_t key_align,
                                   std::size_t val_size,
                                   std::size_t val_align,
                                   std::uint32_t cap) {
    NodeLayout l;
    l.keys_off = align_up(header_bytes, key_align);
    l.vals_off = align_up(l.keys_off + cap * key_size, val_align);
    l.bytes = align_up(l.vals_off + cap * val_size, kCacheLineSize);
    return l;
  }

  // Convenience: layout for header type Node with atomic element types
  // KeyAtom/ValAtom (pass the std::atomic<...> types themselves).
  template <class Node, class KeyAtom, class ValAtom>
  static constexpr NodeLayout of(std::uint32_t cap) {
    return make(sizeof(Node), sizeof(KeyAtom), alignof(KeyAtom),
                sizeof(ValAtom), alignof(ValAtom), cap);
  }
};

}  // namespace sv::alloc
