/// \file ops.hpp
/// Differentiable operations over Tensor (reverse-mode).
///
/// Every function returns a fresh tensor recorded on the tape (unless autograd
/// is disabled via NoGradGuard). Shapes are validated with exceptions so model
/// wiring errors fail loudly at construction time, not as silent corruption.
///
/// The ops that take \c rows compute only those rows of their result (given
/// ascending; empty means every row). The other rows hold unspecified values,
/// and backward treats their gradient as zero: it drops exactly the terms a
/// zero gradient makes zero, so every computed row and every gradient keeps
/// the bits of the full op.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace gnntrans::tensor {

/// Fixed-coefficient sparse matrix (graph structure: adjacency, pooling).
/// Not differentiable w.r.t. its values — they encode circuit structure.
struct GraphMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_index;
  std::vector<std::uint32_t> col_index;
  std::vector<float> values;

  GraphMatrix() = default;
  GraphMatrix(std::size_t r, std::size_t c, std::size_t capacity = 0)
      : rows(r), cols(c) {
    row_index.reserve(capacity);
    col_index.reserve(capacity);
    values.reserve(capacity);
  }

  void add(std::uint32_t r, std::uint32_t c, float v) {
    row_index.push_back(r);
    col_index.push_back(c);
    values.push_back(v);
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return values.size(); }

  /// Scales every row to unit sum (rows with zero sum are left untouched).
  void row_normalize();
};

/// Rows of an op's result to compute, ascending; empty: every row.
using Rows = std::span<const std::uint32_t>;

// ---- Linear algebra ----

/// C = A @ B.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b, Rows rows = {});
/// matmul and multi_head_attention, forward and backward, run at the widest
/// vector width the CPU has (16, 8 or 4 float lanes), with the bits of their
/// scalar loops at every width. While alive, this runs them on the calling
/// thread at \p lanes instead, so tests can pin each width; throws
/// std::invalid_argument unless \p lanes is 4, 8 or 16 and the CPU runs it.
class ProductLanesForTesting {
 public:
  explicit ProductLanesForTesting(std::size_t lanes);
  ~ProductLanesForTesting();
  ProductLanesForTesting(const ProductLanesForTesting&) = delete;
  ProductLanesForTesting& operator=(const ProductLanesForTesting&) = delete;

 private:
  std::size_t previous_;
};
/// Transposed copy.
[[nodiscard]] Tensor transpose(const Tensor& a);
/// Y = M X for a fixed sparse M; backward propagates through X only. A
/// recorded product copies \p m's entries onto the tape.
[[nodiscard]] Tensor spmm(const GraphMatrix& m, const Tensor& x);
/// The ascending distinct columns of \p m, that is, the rows of X that
/// spmm(m, X) reads, into \p out.
void columns_read(const GraphMatrix& m, std::vector<std::uint32_t>& out);

// ---- Elementwise / broadcast ----

/// C = A + B (same shape).
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b, Rows rows = {});
/// C = A - B (same shape).
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
/// C = A * B elementwise (same shape).
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
/// C = A * s.
[[nodiscard]] Tensor scale(const Tensor& a, float s);
/// C[r, :] = A[r, :] + bias[0, :] for every row r.
[[nodiscard]] Tensor add_row_broadcast(const Tensor& a, const Tensor& bias);
/// E[i, j] = s[i, 0] + t[j, 0]; s is [N,1], t is [M,1], result [N,M].
[[nodiscard]] Tensor outer_sum(const Tensor& s, const Tensor& t);

// ---- Nonlinearities ----

[[nodiscard]] Tensor relu(const Tensor& a);
[[nodiscard]] Tensor leaky_relu(const Tensor& a, float negative_slope = 0.2f);
[[nodiscard]] Tensor sigmoid(const Tensor& a);
[[nodiscard]] Tensor tanh_op(const Tensor& a);

// ---- Softmax ----

/// Row-wise softmax over entries where mask[r*cols+c] != 0; masked entries
/// output 0. Rows that are fully masked output all zeros.
[[nodiscard]] Tensor masked_softmax_rows(const Tensor& a,
                                         const std::vector<std::uint8_t>& mask);

// ---- Attention ----

/// Scaled dot-product attention of every head, the heads' outputs side by
/// side: column block h of the [N, heads * dk] result is
/// softmax(q_h k_h^T * scale) v_h with q_h = x wq_h, k_h = x wk_h and
/// v_h = x wv_h. \p weights holds wq, wk and wv of head 0, then of head 1,
/// and so on, each [x.cols(), dk]. \p mask empty: every entry kept; else an
/// N*N mask as masked_softmax_rows takes. Only \p rows' query rows are
/// computed; keys and values cover every row.
///
/// Every output and gradient element gets the float operations, in the
/// same order, of the chain matmul (q, k, v), q k^T, scale, the row softmax
/// (its exp is std::exp's), matmul by v and a column concat over each head,
/// and x's gradient takes its terms as that chain's tape adds them: v, k
/// then q of the last head down to q of head 0. The heads run side by side
/// at full vector width (see ProductLanesForTesting).
[[nodiscard]] Tensor multi_head_attention(const Tensor& x,
                                          std::span<const Tensor> weights,
                                          float scale,
                                          const std::vector<std::uint8_t>& mask,
                                          Rows rows = {});

// ---- Shape ----

/// Column-wise concatenation (all inputs share the row count).
[[nodiscard]] Tensor concat_cols(std::span<const Tensor> parts);
[[nodiscard]] inline Tensor concat_cols(std::initializer_list<Tensor> parts) {
  return concat_cols(std::span<const Tensor>(parts.begin(), parts.size()));
}
/// Gathers rows by index (duplicates allowed); backward scatters-adds.
[[nodiscard]] Tensor gather_rows(const Tensor& a,
                                 const std::vector<std::uint32_t>& indices);

// ---- Reductions / losses ----

/// 1x1 sum of all entries.
[[nodiscard]] Tensor sum_all(const Tensor& a);
/// 1x1 mean of all entries.
[[nodiscard]] Tensor mean_all(const Tensor& a);
/// 1x1 mean squared error against a constant target (no grad into target).
[[nodiscard]] Tensor mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace gnntrans::tensor
