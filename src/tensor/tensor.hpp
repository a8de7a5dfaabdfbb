/// \file tensor.hpp
/// Minimal reverse-mode autograd tensor library.
///
/// The paper trains its models with PyTorch; this repo has no external ML
/// dependency, so this module supplies the needed subset: 2-D float tensors,
/// a tape recorded by the ops in ops.hpp, and backward() for reverse-mode
/// differentiation. Graphs here are small (RC nets of tens to a few hundred
/// nodes), so a dense row-major representation is appropriate.
///
/// A tensor is a *leaf* (parameters, inputs, and every op result made while
/// autograd is off), which owns its floats, or an op result on its thread's
/// *tape*. The tape keeps each op's record and float buffers in one slab
/// that is reused step after step: once no tensor on it is alive, the next
/// recorded op starts the slab over, so a training step that is no larger
/// than an earlier one allocates nothing. release_tape() hands the slab back.
///
/// Threading: the autograd mode flag and the tape are thread-local; tensors
/// themselves are not synchronized and must not be shared across threads
/// while training.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
// Unused here, but the inference plan's translation unit sees it through this
// header, and g++ 12 schedules the plan's passes a few instructions
// differently without it.
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace gnntrans::tensor {

/// A tensor's floats: [begin, end) of storage held by its leaf or its tape.
class Buffer {
 public:
  Buffer() = default;
  Buffer(float* data, std::size_t size) noexcept : begin_(data), end_(data + size) {}

  [[nodiscard]] float* data() const noexcept { return begin_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(end_ - begin_);
  }
  [[nodiscard]] bool empty() const noexcept { return begin_ == end_; }
  [[nodiscard]] float* begin() const noexcept { return begin_; }
  [[nodiscard]] float* end() const noexcept { return end_; }
  [[nodiscard]] float& operator[](std::size_t i) const noexcept { return begin_[i]; }

 private:
  float* begin_ = nullptr;
  float* end_ = nullptr;
};

class Tape;

/// Shared state behind a Tensor handle.
struct TensorImpl {
  std::size_t rows = 0;
  std::size_t cols = 0;
  Buffer value;
  Buffer grad;  ///< empty until backward() reaches this tensor
  bool requires_grad = false;
  /// The tape this tensor is an op result on; null for a leaf.
  Tape* tape = nullptr;

  [[nodiscard]] std::size_t size() const noexcept { return rows * cols; }
  /// Gives the tensor a zeroed gradient buffer if it has none yet.
  void ensure_grad();
};

/// RAII guard disabling tape recording (inference mode) on this thread.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when ops should record the tape on this thread.
[[nodiscard]] bool grad_enabled() noexcept;

/// Returns this thread's tape slab to the system; the next recorded op
/// allocates a new one. Does nothing while a tensor on the tape is alive.
void release_tape() noexcept;

/// Value-semantics handle to a leaf or a tape node.
class Tensor {
 public:
  Tensor() = default;

  /// Creates a rows x cols leaf of zeros.
  Tensor(std::size_t rows, std::size_t cols, bool requires_grad = false);

  /// Creates a leaf adopting \p data (size must equal rows*cols).
  static Tensor from_data(std::vector<float> data, std::size_t rows,
                          std::size_t cols, bool requires_grad = false);

  [[nodiscard]] bool defined() const noexcept { return impl_ != nullptr; }
  [[nodiscard]] std::size_t rows() const noexcept { return impl_->rows; }
  [[nodiscard]] std::size_t cols() const noexcept { return impl_->cols; }
  [[nodiscard]] std::size_t size() const noexcept { return impl_->size(); }
  [[nodiscard]] bool requires_grad() const noexcept { return impl_->requires_grad; }

  [[nodiscard]] std::span<float> values() noexcept { return impl_->value; }
  [[nodiscard]] std::span<const float> values() const noexcept { return impl_->value; }
  /// Gradient buffer; empty until backward() has touched this tensor.
  [[nodiscard]] std::span<float> grad() noexcept { return impl_->grad; }
  [[nodiscard]] std::span<const float> grad() const noexcept { return impl_->grad; }

  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows() && c < cols());
    return impl_->value[r * cols() + c];
  }
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows() && c < cols());
    return impl_->value[r * cols() + c];
  }

  /// Scalar convenience for 1x1 tensors (losses).
  [[nodiscard]] float item() const noexcept {
    assert(size() == 1);
    return impl_->value[0];
  }

  /// Runs reverse-mode autodiff from this (scalar) tensor. Seeds d(self)=1,
  /// accumulates into every reachable requires_grad leaf. Gradients add up
  /// across calls; use zero_grad() between steps.
  void backward();

  /// Clears this tensor's gradient buffer.
  void zero_grad() noexcept {
    if (!impl_->grad.empty()) std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }

  [[nodiscard]] const std::shared_ptr<TensorImpl>& impl() const noexcept { return impl_; }
  /// A handle to \p impl (the tape makes its op results with this).
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Runs the backward step of the op that made \p t, once, from the gradient
/// t.grad() holds, adding into its operands' gradients: each op's backward
/// pinned on its own. Throws std::logic_error unless \p t is an op result
/// that requires grad.
void backward_step_for_testing(const Tensor& t);

}  // namespace gnntrans::tensor
