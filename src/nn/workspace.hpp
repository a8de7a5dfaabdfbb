/// \file workspace.hpp
/// Per-worker activation slab for the compiled GNNTrans inference plan.
///
/// The plan (nn/plan.hpp) lays every activation of one forward pass out in a
/// single flat float buffer whose size depends only on the net's node and
/// path counts. A Workspace owns that buffer and keeps it across calls: it
/// grows when a net needs more room than any earlier one and is reused as is
/// otherwise, so a warm worker allocates nothing per net. Pass one to
/// WireModel::forward (or hold one per serving thread — see
/// core::WireTimingEstimator::estimate_batch). A Workspace must not be used
/// by two threads at the same time; create one per worker instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gnntrans::nn {

class Workspace {
 public:
  /// Slab counters: one acquisition per plan forward pass.
  struct Stats {
    std::size_t reused = 0;      ///< passes served by the existing slab
    std::size_t grown = 0;       ///< passes that had to grow the slab
    std::size_t peak_bytes = 0;  ///< slab size, the high-water mark
  };

  /// Returns the slab, grown to at least \p floats entries. The contents are
  /// unspecified: callers initialise everything they read.
  [[nodiscard]] float* acquire(std::size_t floats) {
    if (floats > slab_.size()) {
      slab_ = std::vector<float>(floats);
      stats_.peak_bytes = floats * sizeof(float);
      ++stats_.grown;
    } else {
      ++stats_.reused;
    }
    return slab_.data();
  }

  /// Node indices the plan's attention layers serve, kept beside the slab
  /// so that it, too, only grows for a net larger than any earlier one.
  [[nodiscard]] std::vector<std::uint32_t>& rows() noexcept { return rows_; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::vector<float> slab_;
  std::vector<std::uint32_t> rows_;
  Stats stats_;
};

}  // namespace gnntrans::nn
