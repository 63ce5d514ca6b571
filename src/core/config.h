// Tunable parameters of the skip vector (Listing 1 / §V-B).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "vectormap/layout.h"

namespace sv::core {

struct Config {
  // Total number of layers including the data layer (layer 0). The paper's
  // general-purpose default is 6 (suitable for ~2^30 elements at T=32).
  std::uint32_t layer_count = 6;

  // targetDataVectorSize (T_D) and targetIndexVectorSize (T_I). A chunk's
  // capacity is 2*T; nodes split when they would exceed capacity.
  std::uint32_t target_data_vector_size = 32;
  std::uint32_t target_index_vector_size = 32;

  // mergeThreshold = factor * targetSize (per layer kind). An orphan is
  // merged into its predecessor by a mutator when the combined size is below
  // this. Paper default: 1.67.
  double merge_threshold_factor = 1.67;

  // Seed for the per-thread height generators.
  std::uint64_t seed = 0xC0FFEE;

  // Chunk layouts (Fig. 7b): every index/data chunk is born with, and
  // keeps, its layer's tag. Both default to sorted: a sorted data chunk
  // has O(1) bounds, binary-searched lookups and range visits that read
  // only the keys in range. On a 4-core host that beat the paper's
  // O(1)-write unsorted data chunks end to end on svbench's scan, point
  // and transaction workloads, and held level on write-only churn
  // (EXPERIMENTS.md Fig. 7b). The paper's configuration is
  // `data_layout = kUnsorted`.
  vectormap::Layout index_layout = vectormap::Layout::kSorted;
  vectormap::Layout data_layout = vectormap::Layout::kSorted;

  static constexpr std::uint32_t kMaxLayers = 32;

  void validate() const {
    if (layer_count < 1 || layer_count > kMaxLayers)
      throw std::invalid_argument("layer_count must be in [1, 32]");
    if (target_data_vector_size < 1 || target_index_vector_size < 1)
      throw std::invalid_argument("target vector sizes must be >= 1");
    if (target_data_vector_size > 4096 || target_index_vector_size > 4096)
      throw std::invalid_argument("target vector sizes must be <= 4096");
    if (merge_threshold_factor < 0)
      throw std::invalid_argument("merge_threshold_factor must be >= 0");
  }

  std::uint32_t data_capacity() const { return 2 * target_data_vector_size; }
  std::uint32_t index_capacity() const { return 2 * target_index_vector_size; }

  std::uint32_t merge_threshold_data() const {
    return static_cast<std::uint32_t>(
        std::lround(merge_threshold_factor * target_data_vector_size));
  }
  std::uint32_t merge_threshold_index() const {
    return static_cast<std::uint32_t>(
        std::lround(merge_threshold_factor * target_index_vector_size));
  }

  // Smallest layer count preserving the O(log n) guarantee for an expected
  // number of elements (§IV-B: log_T(n) layers), as Fig. 7a's sweep adjusts.
  static std::uint32_t layers_for(std::uint64_t expected_elements,
                                  std::uint32_t target_index_size,
                                  std::uint32_t target_data_size) {
    const double t_i = target_index_size > 1 ? target_index_size : 2;
    const double t_d = target_data_size > 1 ? target_data_size : 2;
    double remaining = static_cast<double>(
        expected_elements > 1 ? expected_elements : 2);
    remaining /= t_d;  // the data layer absorbs a factor of T_D
    std::uint32_t layers = 1;
    while (remaining > 1.0 && layers < kMaxLayers) {
      remaining /= t_i;
      ++layers;
    }
    return layers;
  }

  // Config sized for an expected number of elements.
  static Config for_elements(std::uint64_t n, std::uint32_t t_index = 32,
                             std::uint32_t t_data = 32) {
    Config c;
    c.target_index_vector_size = t_index;
    c.target_data_vector_size = t_data;
    c.layer_count = layers_for(n, t_index, t_data);
    return c;
  }

  // The paper's USL stand-in: remove index-layer chunking (T_I = 1).
  static Config usl_for_elements(std::uint64_t n) {
    Config c = for_elements(n, /*t_index=*/1, /*t_data=*/32);
    return c;
  }

  // The paper's SL stand-in: no chunking at all (classic skip list shape).
  static Config sl_for_elements(std::uint64_t n) {
    Config c = for_elements(n, /*t_index=*/1, /*t_data=*/1);
    return c;
  }

  std::string to_string() const {
    return "Config{layers=" + std::to_string(layer_count) +
           ", T_D=" + std::to_string(target_data_vector_size) +
           ", T_I=" + std::to_string(target_index_vector_size) +
           ", mergeFactor=" + std::to_string(merge_threshold_factor) +
           ", layouts=" + vectormap::layout_name(index_layout) + "/" +
           vectormap::layout_name(data_layout) + "}";
  }
};

}  // namespace sv::core
