/// \file layers.hpp
/// Neural layers: the building blocks of GNNTrans (paper Sec. III) and of the
/// baseline model zoo (GCNII, GraphSage, GAT, Graph Transformer).
///
/// Every layer owns its parameters, exposes them via collect_parameters(),
/// and (de)serializes them in a fixed order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <random>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace gnntrans::nn {

/// Fully connected layer: y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in_dim, std::size_t out_dim, std::mt19937_64& rng);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  tensor::Tensor weight_;  ///< [in, out]
  tensor::Tensor bias_;    ///< [1, out]
};

/// Multilayer perceptron with ReLU hidden activations and linear output
/// (the paper's MLP heads, Eq. 5-6).
class Mlp {
 public:
  Mlp() = default;
  /// \p dims is {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<std::size_t>& dims, std::mt19937_64& rng);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  std::vector<Linear> layers_;
};

/// The baselines' operators, each derived from the sparsity pattern of a
/// sample's weighted_adj. Mean aggregation: each entry is 1 / its row's nnz.
[[nodiscard]] tensor::GraphMatrix mean_adjacency(const tensor::GraphMatrix& adj);
/// GCNII propagation D^{-1/2} (A + I) D^{-1/2}: per row, the self loop, then
/// the row's entries in order. \p adj's entries must be grouped by row.
[[nodiscard]] tensor::GraphMatrix gcnii_adjacency(const tensor::GraphMatrix& adj);
/// N*N neighbour mask, self loops included, for neighbour-restricted attention.
[[nodiscard]] std::vector<std::uint8_t> neighbor_mask(const tensor::GraphMatrix& adj);

/// Paper Eq. (1): x_i' = ReLU(W1 x_i + W2 * sum_u a_iu x_u).
///
/// The aggregation matrix carries the resistance weights a_iu (or plain mean
/// weights for the unweighted ablation); it comes from the sample, not the layer.
class SageConv {
 public:
  SageConv() = default;
  SageConv(std::size_t in_dim, std::size_t out_dim, std::mt19937_64& rng);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x,
                                       const tensor::GraphMatrix& agg) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  tensor::Tensor w_self_;   ///< W1
  tensor::Tensor w_neigh_;  ///< W2
};

/// GCNII layer (Chen et al., ICML'20) with residual connection to the initial
/// representation and identity mapping:
///   x' = ReLU(((1-alpha) P x + alpha x0) ((1-beta) I + beta W)).
class GcniiLayer {
 public:
  GcniiLayer() = default;
  GcniiLayer(std::size_t dim, float alpha, float beta, std::mt19937_64& rng);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x,
                                       const tensor::Tensor& x0,
                                       const tensor::GraphMatrix& prop) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  tensor::Tensor weight_;
  float alpha_ = 0.1f;
  float beta_ = 0.5f;
};

/// Multi-head graph attention layer (Velickovic et al.): additive attention
/// over neighbors (self loop included), heads concatenated.
class GatLayer {
 public:
  GatLayer() = default;
  GatLayer(std::size_t in_dim, std::size_t out_dim, std::size_t heads,
           std::mt19937_64& rng);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x,
                                       const std::vector<std::uint8_t>& mask) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  struct Head {
    tensor::Tensor weight;  ///< [in, dk]
    tensor::Tensor attn_l;  ///< [dk, 1]
    tensor::Tensor attn_r;  ///< [dk, 1]
  };
  std::vector<Head> heads_;
  tensor::Tensor out_proj_;  ///< mixes concatenated heads back to out_dim
};

/// Multi-head self-attention with residual (paper Eq. 2-3 when the mask is
/// empty = fully global; Dwivedi-Bresson graph transformer when the mask
/// restricts attention to graph neighbors).
class SelfAttentionLayer {
 public:
  SelfAttentionLayer() = default;
  /// \p dim must be divisible by \p heads.
  SelfAttentionLayer(std::size_t dim, std::size_t heads, std::mt19937_64& rng);

  /// \p mask empty = global attention over all nodes (GNNTrans Eq. 2-3);
  /// otherwise an N*N neighbor mask (graph transformer baseline). \p rows,
  /// when not empty, are the only query rows computed (tensor::Rows): keys
  /// and values still cover every node.
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x,
                                       const std::vector<std::uint8_t>& mask,
                                       tensor::Rows rows = {}) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  /// wq, wk and wv ([dim, dk] each) of head 0, then of head 1, ...: the
  /// order tensor::multi_head_attention takes them in.
  std::vector<tensor::Tensor> qkv_;
  tensor::Tensor w3_;  ///< [dim, dim], paper's W3 mixing the concatenated heads
  float inv_sqrt_dk_ = 1.0f;
};

/// Position-wise feed-forward block with residual (graph transformer baseline;
/// the paper's GNNTrans global-attention module does not use one).
class FeedForward {
 public:
  FeedForward() = default;
  FeedForward(std::size_t dim, std::size_t hidden, std::mt19937_64& rng);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x) const;
  void collect_parameters(std::vector<tensor::Tensor>& out) const;
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  Linear up_;
  Linear down_;
};

}  // namespace gnntrans::nn
