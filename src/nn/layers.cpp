#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/init.hpp"
#include "tensor/serialize.hpp"

namespace gnntrans::nn {

using tensor::Tensor;

// ---- Baseline operators ----

tensor::GraphMatrix mean_adjacency(const tensor::GraphMatrix& adj) {
  std::vector<float> degree(adj.rows, 0.0f);
  for (const std::uint32_t r : adj.row_index) degree[r] += 1.0f;
  tensor::GraphMatrix mean = adj;
  for (std::size_t k = 0; k < mean.nnz(); ++k)
    mean.values[k] = 1.0f / degree[mean.row_index[k]];
  return mean;
}

tensor::GraphMatrix gcnii_adjacency(const tensor::GraphMatrix& adj) {
  const std::size_t n = adj.rows;
  std::vector<float> inv_sqrt_deg(n, 1.0f);  // degree + 1 for the self loop
  for (const std::uint32_t r : adj.row_index) inv_sqrt_deg[r] += 1.0f;
  for (float& d : inv_sqrt_deg) d = 1.0f / std::sqrt(d);
  tensor::GraphMatrix gcnii(n, n, adj.nnz() + n);
  std::size_t k = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    gcnii.add(v, v, inv_sqrt_deg[v] * inv_sqrt_deg[v]);
    for (; k < adj.nnz() && adj.row_index[k] == v; ++k)
      gcnii.add(v, adj.col_index[k], inv_sqrt_deg[v] * inv_sqrt_deg[adj.col_index[k]]);
  }
  if (k != adj.nnz())
    throw std::invalid_argument("gcnii_adjacency: entries not grouped by row");
  return gcnii;
}

std::vector<std::uint8_t> neighbor_mask(const tensor::GraphMatrix& adj) {
  const std::size_t n = adj.rows;
  std::vector<std::uint8_t> mask(n * n, 0);
  for (std::size_t v = 0; v < n; ++v) mask[v * n + v] = 1;
  for (std::size_t k = 0; k < adj.nnz(); ++k)
    mask[adj.row_index[k] * n + adj.col_index[k]] = 1;
  return mask;
}

// ---- Linear ----

Linear::Linear(std::size_t in_dim, std::size_t out_dim, std::mt19937_64& rng)
    : weight_(tensor::xavier_uniform(in_dim, out_dim, rng)),
      bias_(tensor::zeros_param(1, out_dim)) {}

Tensor Linear::forward(const Tensor& x) const {
  return tensor::add_row_broadcast(tensor::matmul(x, weight_), bias_);
}

void Linear::collect_parameters(std::vector<Tensor>& out) const {
  out.push_back(weight_);
  out.push_back(bias_);
}

void Linear::save(std::ostream& out) const {
  tensor::write_tensor(out, weight_);
  tensor::write_tensor(out, bias_);
}

void Linear::load(std::istream& in) {
  weight_ = tensor::read_tensor(in);
  bias_ = tensor::read_tensor(in);
}

// ---- Mlp ----

Mlp::Mlp(const std::vector<std::size_t>& dims, std::mt19937_64& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need at least {in, out}");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    layers_.emplace_back(dims[i], dims[i + 1], rng);
}

Tensor Mlp::forward(const Tensor& x) const {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) h = tensor::relu(h);
  }
  return h;
}

void Mlp::collect_parameters(std::vector<Tensor>& out) const {
  for (const Linear& l : layers_) l.collect_parameters(out);
}

void Mlp::save(std::ostream& out) const {
  for (const Linear& l : layers_) l.save(out);
}

void Mlp::load(std::istream& in) {
  for (Linear& l : layers_) l.load(in);
}

// ---- SageConv ----

SageConv::SageConv(std::size_t in_dim, std::size_t out_dim, std::mt19937_64& rng)
    : w_self_(tensor::xavier_uniform(in_dim, out_dim, rng)),
      w_neigh_(tensor::xavier_uniform(in_dim, out_dim, rng)) {}

Tensor SageConv::forward(const Tensor& x, const tensor::GraphMatrix& agg) const {
  const Tensor own = tensor::matmul(x, w_self_);
  const Tensor neigh = tensor::matmul(tensor::spmm(agg, x), w_neigh_);
  return tensor::relu(tensor::add(own, neigh));
}

void SageConv::collect_parameters(std::vector<Tensor>& out) const {
  out.push_back(w_self_);
  out.push_back(w_neigh_);
}

void SageConv::save(std::ostream& out) const {
  tensor::write_tensor(out, w_self_);
  tensor::write_tensor(out, w_neigh_);
}

void SageConv::load(std::istream& in) {
  w_self_ = tensor::read_tensor(in);
  w_neigh_ = tensor::read_tensor(in);
}

// ---- GcniiLayer ----

GcniiLayer::GcniiLayer(std::size_t dim, float alpha, float beta,
                       std::mt19937_64& rng)
    : weight_(tensor::xavier_uniform(dim, dim, rng)), alpha_(alpha), beta_(beta) {}

Tensor GcniiLayer::forward(const Tensor& x, const Tensor& x0,
                           const tensor::GraphMatrix& prop) const {
  // z = (1-alpha) P x + alpha x0
  const Tensor z = tensor::add(tensor::scale(tensor::spmm(prop, x), 1.0f - alpha_),
                               tensor::scale(x0, alpha_));
  // z ((1-beta) I + beta W) = (1-beta) z + beta (z W)
  const Tensor mixed = tensor::add(tensor::scale(z, 1.0f - beta_),
                                   tensor::scale(tensor::matmul(z, weight_), beta_));
  return tensor::relu(mixed);
}

void GcniiLayer::collect_parameters(std::vector<Tensor>& out) const {
  out.push_back(weight_);
}

void GcniiLayer::save(std::ostream& out) const { tensor::write_tensor(out, weight_); }

void GcniiLayer::load(std::istream& in) { weight_ = tensor::read_tensor(in); }

// ---- GatLayer ----

GatLayer::GatLayer(std::size_t in_dim, std::size_t out_dim, std::size_t heads,
                   std::mt19937_64& rng) {
  if (heads == 0) throw std::invalid_argument("GatLayer: heads must be > 0");
  const std::size_t dk = std::max<std::size_t>(1, out_dim / heads);
  heads_.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    Head head;
    head.weight = tensor::xavier_uniform(in_dim, dk, rng);
    head.attn_l = tensor::xavier_uniform(dk, 1, rng);
    head.attn_r = tensor::xavier_uniform(dk, 1, rng);
    heads_.push_back(std::move(head));
  }
  out_proj_ = tensor::xavier_uniform(heads * dk, out_dim, rng);
}

Tensor GatLayer::forward(const Tensor& x, const std::vector<std::uint8_t>& mask) const {
  std::vector<Tensor> outputs;
  outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    const Tensor wh = tensor::matmul(x, head.weight);        // [N, dk]
    const Tensor s = tensor::matmul(wh, head.attn_l);        // [N, 1]
    const Tensor t = tensor::matmul(wh, head.attn_r);        // [N, 1]
    const Tensor e = tensor::leaky_relu(tensor::outer_sum(s, t), 0.2f);
    const Tensor attn = tensor::masked_softmax_rows(e, mask);  // [N, N]
    outputs.push_back(tensor::matmul(attn, wh));              // [N, dk]
  }
  const Tensor cat = outputs.size() == 1 ? outputs.front() : tensor::concat_cols(outputs);
  return tensor::relu(tensor::matmul(cat, out_proj_));
}

void GatLayer::collect_parameters(std::vector<Tensor>& out) const {
  for (const Head& h : heads_) {
    out.push_back(h.weight);
    out.push_back(h.attn_l);
    out.push_back(h.attn_r);
  }
  out.push_back(out_proj_);
}

void GatLayer::save(std::ostream& out) const {
  for (const Head& h : heads_) {
    tensor::write_tensor(out, h.weight);
    tensor::write_tensor(out, h.attn_l);
    tensor::write_tensor(out, h.attn_r);
  }
  tensor::write_tensor(out, out_proj_);
}

void GatLayer::load(std::istream& in) {
  for (Head& h : heads_) {
    h.weight = tensor::read_tensor(in);
    h.attn_l = tensor::read_tensor(in);
    h.attn_r = tensor::read_tensor(in);
  }
  out_proj_ = tensor::read_tensor(in);
}

// ---- SelfAttentionLayer ----

SelfAttentionLayer::SelfAttentionLayer(std::size_t dim, std::size_t heads,
                                       std::mt19937_64& rng) {
  if (heads == 0 || dim % heads != 0)
    throw std::invalid_argument("SelfAttentionLayer: dim must divide by heads");
  const std::size_t dk = dim / heads;
  inv_sqrt_dk_ = 1.0f / std::sqrt(static_cast<float>(dk));
  qkv_.reserve(3 * heads);
  for (std::size_t i = 0; i < 3 * heads; ++i)
    qkv_.push_back(tensor::xavier_uniform(dim, dk, rng));
  w3_ = tensor::xavier_uniform(dim, dim, rng);
}

Tensor SelfAttentionLayer::forward(const Tensor& x,
                                   const std::vector<std::uint8_t>& mask,
                                   tensor::Rows rows) const {
  // Eq. (2): every head's scaled dot-product attention map, heads side by side.
  const Tensor cat = tensor::multi_head_attention(x, qkv_, inv_sqrt_dk_, mask, rows);
  // Eq. (3): residual + W3 over the concatenated heads.
  return tensor::add(x, tensor::matmul(cat, w3_, rows), rows);
}

void SelfAttentionLayer::collect_parameters(std::vector<Tensor>& out) const {
  out.insert(out.end(), qkv_.begin(), qkv_.end());
  out.push_back(w3_);
}

void SelfAttentionLayer::save(std::ostream& out) const {
  for (const Tensor& w : qkv_) tensor::write_tensor(out, w);
  tensor::write_tensor(out, w3_);
}

void SelfAttentionLayer::load(std::istream& in) {
  for (Tensor& w : qkv_) w = tensor::read_tensor(in);
  w3_ = tensor::read_tensor(in);
}

// ---- FeedForward ----

FeedForward::FeedForward(std::size_t dim, std::size_t hidden, std::mt19937_64& rng)
    : up_(dim, hidden, rng), down_(hidden, dim, rng) {}

Tensor FeedForward::forward(const Tensor& x) const {
  return tensor::add(x, down_.forward(tensor::relu(up_.forward(x))));
}

void FeedForward::collect_parameters(std::vector<Tensor>& out) const {
  up_.collect_parameters(out);
  down_.collect_parameters(out);
}

void FeedForward::save(std::ostream& out) const {
  up_.save(out);
  down_.save(out);
}

void FeedForward::load(std::istream& in) {
  up_.load(in);
  down_.load(in);
}

}  // namespace gnntrans::nn
