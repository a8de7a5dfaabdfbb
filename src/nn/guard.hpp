/// \file guard.hpp
/// NaN/Inf guards at model layer boundaries.
///
/// A corrupted weight file, an exploded activation, or a pathological input
/// turns the forward pass into a silent garbage generator: downstream STA
/// happily propagates NaN arrivals. The guard converts that into a typed
/// NonFiniteActivationError at the first layer boundary where a non-finite
/// value appears, which the serving path maps to ErrorCode
/// kNonFiniteActivation and degrades to the analytic baseline.
///
/// The scan is O(rows*cols) per guarded boundary — an order of magnitude
/// cheaper than the matmul that produced the activation — and can be switched
/// off globally (set_finite_guard) for closed-loop training experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace gnntrans::nn {

/// Thrown when a guarded boundary sees a NaN or Inf.
class NonFiniteActivationError : public std::runtime_error {
 public:
  NonFiniteActivationError(std::string stage, std::size_t row, std::size_t col);

  /// The boundary that caught the value ("gnn_forward", "heads", ...).
  [[nodiscard]] const std::string& stage() const noexcept { return stage_; }

 private:
  std::string stage_;
};

/// Globally enables/disables boundary scans (default: enabled).
void set_finite_guard(bool enabled) noexcept;
[[nodiscard]] bool finite_guard_enabled() noexcept;

/// RAII toggle for tests/benchmarks.
class FiniteGuardScope {
 public:
  explicit FiniteGuardScope(bool enabled)
      : previous_(finite_guard_enabled()) {
    set_finite_guard(enabled);
  }
  ~FiniteGuardScope() { set_finite_guard(previous_); }
  FiniteGuardScope(const FiniteGuardScope&) = delete;
  FiniteGuardScope& operator=(const FiniteGuardScope&) = delete;

 private:
  bool previous_;
};

/// Throws NonFiniteActivationError if the guard is enabled and \p t contains
/// a NaN/Inf. No-op on undefined tensors and when the guard is off.
void guard_finite(const tensor::Tensor& t, const char* stage);

/// The same scan over \p rows of \p t only (every row when empty).
void guard_finite(const tensor::Tensor& t, const char* stage,
                  std::span<const std::uint32_t> rows);

/// The same scan over a raw row-major buffer of \p cols columns (the
/// inference plan's slab activations).
void guard_finite(std::span<const float> values, std::size_t cols,
                  const char* stage);

}  // namespace gnntrans::nn
