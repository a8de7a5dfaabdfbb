#include "nn/guard.hpp"

#include <atomic>
#include <cmath>

namespace gnntrans::nn {

namespace {

std::atomic<bool> g_finite_guard{true};

}  // namespace

NonFiniteActivationError::NonFiniteActivationError(std::string stage,
                                                   std::size_t row,
                                                   std::size_t col)
    : std::runtime_error("non-finite activation at layer boundary '" + stage +
                         "' [" + std::to_string(row) + "," +
                         std::to_string(col) + "]"),
      stage_(std::move(stage)) {}

void set_finite_guard(bool enabled) noexcept {
  g_finite_guard.store(enabled, std::memory_order_relaxed);
}

bool finite_guard_enabled() noexcept {
  return g_finite_guard.load(std::memory_order_relaxed);
}

void guard_finite(const tensor::Tensor& t, const char* stage) {
  if (t.defined()) guard_finite(t.values(), t.cols(), stage);
}

void guard_finite(const tensor::Tensor& t, const char* stage,
                  std::span<const std::uint32_t> rows) {
  if (rows.empty()) return guard_finite(t, stage);
  if (!t.defined() || !finite_guard_enabled()) return;
  const std::size_t d = t.cols();
  for (const std::uint32_t r : rows)
    for (std::size_t c = 0; c < d; ++c)
      if (!std::isfinite(t.values()[r * d + c])) [[unlikely]]
        throw NonFiniteActivationError(stage, r, c);
}

void guard_finite(std::span<const float> values, std::size_t cols,
                  const char* stage) {
  if (!finite_guard_enabled()) return;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) [[unlikely]]
      throw NonFiniteActivationError(stage, i / cols, i % cols);
  }
}

}  // namespace gnntrans::nn
