// The per-chunk layout tag (Fig. 7b): split out of vector_map.h so that
// Config (src/core/config.h) can name layouts without pulling in the
// chunk-search and stats machinery.
#pragma once

#include <cstdint>

namespace sv::vectormap {

enum class Layout : std::uint8_t { kSorted, kUnsorted };

inline const char* layout_name(Layout l) noexcept {
  return l == Layout::kSorted ? "sorted" : "unsorted";
}

}  // namespace sv::vectormap
