/// \file tape.hpp
/// The autograd tape behind tensor.hpp: what the ops in ops.cpp record and
/// what Tensor::backward() walks. Internal to the tensor library.
///
/// Each thread has one tape. An op result is a Node placed in the tape's
/// slab, its float buffer and gradient beside it, and whatever its backward
/// needs that its caller may free first (a mask, a sparse matrix, a row
/// list) is copied there too. A Tensor on the tape shares the tape's
/// ownership, so when the last one is gone the next recorded op starts the
/// slab over from its first byte. The slab only grows when a step takes more
/// than any step before it; a step that overflows it runs on in extra blocks,
/// which the next start-over folds into one slab of the step's size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace gnntrans::tensor {

/// The op that made a node; Node::run_backward() dispatches on it.
enum class Op : std::uint8_t {
  kMatmul,
  kTranspose,
  kSpmm,
  kLinear,  ///< scalar[0] * a + scalar[1] * b (add, sub)
  kMul,
  kScale,
  kAddRowBroadcast,
  kOuterSum,
  kRelu,
  kLeakyRelu,  ///< scalar[0]: the negative slope
  kSigmoid,
  kTanh,
  kSoftmax,  ///< mask empty: every entry kept
  kAttention,  ///< operands {x, wq, wk, wv of each head}; scalar[0]: the scale
  kConcatCols,
  kGatherRows,
  kSumAll,
  kMseLoss,  ///< operands {pred, target}; scalar[0]: 1 / size
};

/// An op result on the tape.
struct Node final : TensorImpl {
  Op op{};
  /// How many of the operands backward() walks into (mse_loss's target is
  /// read but not walked).
  std::uint32_t parents = 0;
  /// The last backward() pass that reached this node.
  std::uint32_t visit = 0;
  std::span<TensorImpl* const> operands;
  float scalar[2] = {};
  /// The rows the op computed, ascending; empty when it computed all.
  std::span<const std::uint32_t> rows_computed;
  std::span<const std::uint32_t> index;   ///< gather's rows; spmm's rows
  std::span<const std::uint32_t> index2;  ///< spmm's columns
  /// spmm's entries; the attention's projections, weights and kept entries
  std::span<const float> saved;
  std::span<const std::uint8_t> mask;  ///< masked softmax's mask

  /// Adds this node's contribution to its operands' gradients (ops.cpp).
  void run_backward();
};

/// An op's output: a node on this thread's tape while autograd records, else
/// a leaf of zeros. \c node is null unless the result requires grad.
struct OpResult {
  Tensor tensor;
  Node* node;
  float* out;
};

/// Records an op over \p operands (the first \p parents of them walked by
/// backward()) with a rows x cols result.
[[nodiscard]] OpResult record(Op op, std::size_t rows, std::size_t cols,
                              std::initializer_list<const Tensor*> operands,
                              std::size_t parents);
[[nodiscard]] inline OpResult record(Op op, std::size_t rows, std::size_t cols,
                                     std::initializer_list<const Tensor*> operands) {
  return record(op, rows, cols, operands, operands.size());
}
[[nodiscard]] OpResult record(Op op, std::size_t rows, std::size_t cols,
                              std::span<const Tensor> operands);
/// Records an op over \p first, then \p rest, all walked by backward().
[[nodiscard]] OpResult record(Op op, std::size_t rows, std::size_t cols,
                              const Tensor& first, std::span<const Tensor> rest);

class Tape {
 public:
  Tape() = default;
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Uninitialised room for \p n values of T, 64-byte aligned, until the
  /// tape starts over.
  template <class T>
  [[nodiscard]] std::span<T> take(std::size_t n) {
    return {static_cast<T*>(take_bytes(n * sizeof(T))), n};
  }
  /// A copy of \p src on the tape.
  template <class T>
  [[nodiscard]] std::span<const T> copy(std::span<const T> src) {
    const std::span<T> dst = take<T>(src.size());
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size_bytes());
    return dst;
  }

  /// A new node: value buffer taken, every other field at its default.
  [[nodiscard]] Node& add_node(std::size_t rows, std::size_t cols);
  /// Keeps \p t alive until the tape starts over: a leaf, or a node of
  /// another thread's tape, that a node reads in backward().
  void hold(const std::shared_ptr<TensorImpl>& t) { held_.push_back(t); }

  /// Forgets every node, keeping the slab; folds overflow blocks into one.
  void start_over();
  /// Reverse-mode pass from \p root, one of this tape's nodes.
  void backward(Node& root);

 private:
  struct Block {
    std::byte* data;
    std::size_t size;
  };
  void* take_bytes(std::size_t size);
  void free_blocks() noexcept;

  std::vector<Block> blocks_;
  std::size_t used_ = 0;   ///< bytes taken from blocks_.back()
  std::size_t taken_ = 0;  ///< bytes taken since the last start-over
  std::vector<std::shared_ptr<TensorImpl>> held_;
  std::uint32_t pass_ = 0;
  std::vector<std::pair<Node*, std::size_t>> stack_;
  std::vector<Node*> order_;
};

}  // namespace gnntrans::tensor
