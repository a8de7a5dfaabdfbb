#include "nn/models.hpp"

#include <memory>
#include <stdexcept>

#include "core/telemetry/trace.hpp"
#include "nn/guard.hpp"
#include "tensor/serialize.hpp"

namespace gnntrans::nn {

using tensor::Tensor;

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGnnTrans: return "GNNTrans";
    case ModelKind::kGraphSage: return "GraphSage";
    case ModelKind::kGcnii: return "GCNII";
    case ModelKind::kGat: return "GAT";
    case ModelKind::kGraphTransformer: return "GraphTransformer";
  }
  return "unknown";
}

std::size_t WireModel::parameter_count() const {
  std::size_t total = 0;
  for (const Tensor& p : parameters()) total += p.size();
  return total;
}

WirePrediction WireModel::forward(const GraphSample& sample,
                                  Workspace* workspace,
                                  std::vector<float>* embedding) const {
  WirePrediction pred;
  if (!plan_ || tensor::grad_enabled()) {
    pred = run_forward(sample);
  } else if (workspace) {
    pred = plan_->run(sample, *workspace, embedding);
  } else {
    Workspace local;
    pred = plan_->run(sample, local, embedding);
  }
  // Final boundary guard for every architecture: predictions are [P,1], so
  // this scan is negligible next to the forward pass it protects.
  guard_finite(pred.slew, "slew_head");
  guard_finite(pred.delay, "delay_head");
  return pred;
}

WirePrediction WireModel::forward_heads(std::span<const float> embedding,
                                        const tensor::Tensor& h,
                                        Workspace* workspace) const {
  if (!plan_)
    throw std::logic_error("forward_heads: " + name() +
                           " has no compiled inference plan");
  WirePrediction pred;
  if (workspace) {
    pred = plan_->run_heads(embedding, h, *workspace);
  } else {
    Workspace local;
    pred = plan_->run_heads(embedding, h, local);
  }
  guard_finite(pred.slew, "slew_head");
  guard_finite(pred.delay, "delay_head");
  return pred;
}

namespace {

/// Shared slew/delay MLP heads (paper Eq. 5-6).
class PredictionHeads {
 public:
  PredictionHeads() = default;
  PredictionHeads(std::size_t repr_dim, std::size_t mlp_hidden, bool cascade,
                  std::mt19937_64& rng)
      : cascade_(cascade),
        slew_head_({repr_dim, mlp_hidden, mlp_hidden, 1}, rng),
        delay_head_({repr_dim + (cascade ? 1u : 0u), mlp_hidden, mlp_hidden, 1},
                    rng) {}

  [[nodiscard]] WirePrediction predict(const Tensor& repr) const {
    WirePrediction pred;
    pred.slew = slew_head_.forward(repr);  // Eq. (5)
    const Tensor delay_in =
        cascade_ ? tensor::concat_cols({repr, pred.slew}) : repr;
    pred.delay = delay_head_.forward(delay_in);  // Eq. (6)
    return pred;
  }

  void collect_parameters(std::vector<Tensor>& out) const {
    slew_head_.collect_parameters(out);
    delay_head_.collect_parameters(out);
  }
  void save(std::ostream& out) const {
    slew_head_.save(out);
    delay_head_.save(out);
  }
  void load(std::istream& in) {
    slew_head_.load(in);
    delay_head_.load(in);
  }

 private:
  bool cascade_ = true;
  Mlp slew_head_;
  Mlp delay_head_;
};

/// The paper's architecture (Fig. 4): L1 weighted-Sage GNN layers, L2 global
/// self-attention layers, path pooling with raw path features, MLP heads.
class GnnTransModel final : public WireModel {
 public:
  explicit GnnTransModel(const ModelConfig& config) : WireModel(config) {
    std::mt19937_64 rng(config.seed);
    gnn_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l)
      gnn_.emplace_back(l == 0 ? config.node_feature_dim : config.hidden_dim,
                        config.hidden_dim, rng);
    attention_.reserve(config.transformer_layers);
    for (std::size_t l = 0; l < config.transformer_layers; ++l)
      attention_.emplace_back(config.hidden_dim, config.heads, rng);
    const std::size_t repr_dim =
        config.hidden_dim +
        (config.use_path_features ? config.path_feature_dim : 0u);
    heads_ = PredictionHeads(repr_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] WirePrediction run_forward(const GraphSample& sample) const override {
    tensor::GraphMatrix mean;
    if (!config_.use_edge_weights) mean = mean_adjacency(sample.weighted_adj);
    const tensor::GraphMatrix& agg =
        config_.use_edge_weights ? sample.weighted_adj : mean;
    Tensor x = sample.x;
    guard_finite(x, "input");
    {
      const telemetry::TraceSpan span("gnn_forward", "model");
      for (const SageConv& layer : gnn_) x = layer.forward(x, agg);  // Eq. (1)
      guard_finite(x, "gnn_forward");
    }
    const std::vector<std::uint8_t> mask =
        config_.global_attention ? std::vector<std::uint8_t>()
                                 : neighbor_mask(sample.weighted_adj);
    {
      const telemetry::TraceSpan span("attention", "model");
      // Only the rows the path pooling reads reach the heads, so the last
      // layer computes just those, as the inference plan serves them.
      // Per thread, so a warm trainer allocates no list per step.
      thread_local std::vector<std::uint32_t> live;
      tensor::columns_read(sample.path_pool, live);
      for (std::size_t l = 0; l < attention_.size(); ++l)
        x = attention_[l].forward(x, mask, l + 1 == attention_.size()
                                               ? tensor::Rows(live)
                                               : tensor::Rows());
      guard_finite(x, "attention", attention_.empty() ? tensor::Rows() : live);
    }
    const telemetry::TraceSpan span("heads", "model");
    Tensor pooled = tensor::spmm(sample.path_pool, x);  // Eq. (4) mean part
    if (config_.use_path_features)
      pooled = tensor::concat_cols({pooled, sample.h});  // Eq. (4) concat part
    return heads_.predict(pooled);
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    for (const SageConv& l : gnn_) l.collect_parameters(out);
    for (const SelfAttentionLayer& l : attention_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGnnTrans; }

  void save_parameters(std::ostream& out) const override {
    for (const SageConv& l : gnn_) l.save(out);
    for (const SelfAttentionLayer& l : attention_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    for (SageConv& l : gnn_) l.load(in);
    for (SelfAttentionLayer& l : attention_) l.load(in);
    heads_.load(in);
  }

 private:
  std::vector<SageConv> gnn_;
  std::vector<SelfAttentionLayer> attention_;
  PredictionHeads heads_;
};

/// GraphSage baseline: mean aggregation, depth L, mean pooling (no H).
class GraphSageModel final : public WireModel {
 public:
  explicit GraphSageModel(const ModelConfig& config) : WireModel(config) {
    std::mt19937_64 rng(config.seed);
    layers_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l)
      layers_.emplace_back(l == 0 ? config.node_feature_dim : config.hidden_dim,
                           config.hidden_dim, rng);
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] WirePrediction run_forward(const GraphSample& sample) const override {
    const tensor::GraphMatrix mean = mean_adjacency(sample.weighted_adj);
    Tensor x = sample.x;
    for (const SageConv& layer : layers_) x = layer.forward(x, mean);
    return heads_.predict(tensor::spmm(sample.path_pool, x));
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    for (const SageConv& l : layers_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGraphSage; }

  void save_parameters(std::ostream& out) const override {
    for (const SageConv& l : layers_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    for (SageConv& l : layers_) l.load(in);
    heads_.load(in);
  }

 private:
  std::vector<SageConv> layers_;
  PredictionHeads heads_;
};

/// GCNII baseline: residual + identity mapping to fight over-smoothing.
class GcniiModel final : public WireModel {
 public:
  explicit GcniiModel(const ModelConfig& config) : WireModel(config) {
    std::mt19937_64 rng(config.seed);
    input_ = Linear(config.node_feature_dim, config.hidden_dim, rng);
    layers_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l) {
      // beta_l = lambda / l with lambda = 0.5 (paper [17]'s recommended decay).
      const float beta = 0.5f / static_cast<float>(l + 1);
      layers_.emplace_back(config.hidden_dim, /*alpha=*/0.1f, beta, rng);
    }
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] WirePrediction run_forward(const GraphSample& sample) const override {
    const tensor::GraphMatrix prop = gcnii_adjacency(sample.weighted_adj);
    const Tensor x0 = tensor::relu(input_.forward(sample.x));
    Tensor x = x0;
    for (const GcniiLayer& layer : layers_) x = layer.forward(x, x0, prop);
    return heads_.predict(tensor::spmm(sample.path_pool, x));
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    input_.collect_parameters(out);
    for (const GcniiLayer& l : layers_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGcnii; }

  void save_parameters(std::ostream& out) const override {
    input_.save(out);
    for (const GcniiLayer& l : layers_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    input_.load(in);
    for (GcniiLayer& l : layers_) l.load(in);
    heads_.load(in);
  }

 private:
  Linear input_;
  std::vector<GcniiLayer> layers_;
  PredictionHeads heads_;
};

/// GAT baseline: multi-head additive attention over neighbors.
class GatModel final : public WireModel {
 public:
  explicit GatModel(const ModelConfig& config) : WireModel(config) {
    std::mt19937_64 rng(config.seed);
    layers_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l)
      layers_.emplace_back(l == 0 ? config.node_feature_dim : config.hidden_dim,
                           config.hidden_dim, config.heads, rng);
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] WirePrediction run_forward(const GraphSample& sample) const override {
    const std::vector<std::uint8_t> mask = neighbor_mask(sample.weighted_adj);
    Tensor x = sample.x;
    for (const GatLayer& layer : layers_) x = layer.forward(x, mask);
    return heads_.predict(tensor::spmm(sample.path_pool, x));
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    for (const GatLayer& l : layers_) l.collect_parameters(out);
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override { return ModelKind::kGat; }

  void save_parameters(std::ostream& out) const override {
    for (const GatLayer& l : layers_) l.save(out);
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    for (GatLayer& l : layers_) l.load(in);
    heads_.load(in);
  }

 private:
  std::vector<GatLayer> layers_;
  PredictionHeads heads_;
};

/// Graph transformer baseline [19]: neighbor-masked attention + feed-forward.
class GraphTransformerModel final : public WireModel {
 public:
  explicit GraphTransformerModel(const ModelConfig& config) : WireModel(config) {
    std::mt19937_64 rng(config.seed);
    input_ = Linear(config.node_feature_dim, config.hidden_dim, rng);
    attention_.reserve(config.gnn_layers);
    ffn_.reserve(config.gnn_layers);
    for (std::size_t l = 0; l < config.gnn_layers; ++l) {
      attention_.emplace_back(config.hidden_dim, config.heads, rng);
      ffn_.emplace_back(config.hidden_dim, config.hidden_dim * 2, rng);
    }
    heads_ = PredictionHeads(config.hidden_dim, config.mlp_hidden,
                             config.cascade_delay_head, rng);
  }

  [[nodiscard]] WirePrediction run_forward(const GraphSample& sample) const override {
    const std::vector<std::uint8_t> mask = neighbor_mask(sample.weighted_adj);
    Tensor x = tensor::relu(input_.forward(sample.x));
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      x = attention_[l].forward(x, mask);
      x = ffn_[l].forward(x);
    }
    return heads_.predict(tensor::spmm(sample.path_pool, x));
  }

  [[nodiscard]] std::vector<Tensor> parameters() const override {
    std::vector<Tensor> out;
    input_.collect_parameters(out);
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      attention_[l].collect_parameters(out);
      ffn_[l].collect_parameters(out);
    }
    heads_.collect_parameters(out);
    return out;
  }

  [[nodiscard]] ModelKind kind() const override {
    return ModelKind::kGraphTransformer;
  }

  void save_parameters(std::ostream& out) const override {
    input_.save(out);
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      attention_[l].save(out);
      ffn_[l].save(out);
    }
    heads_.save(out);
  }
  void load_parameters(std::istream& in) override {
    input_.load(in);
    for (std::size_t l = 0; l < attention_.size(); ++l) {
      attention_[l].load(in);
      ffn_[l].load(in);
    }
    heads_.load(in);
  }

 private:
  Linear input_;
  std::vector<SelfAttentionLayer> attention_;
  std::vector<FeedForward> ffn_;
  PredictionHeads heads_;
};

/// Parameter names in parameters() order: each model's walk over its layers,
/// with the names of the inference plan's weights for GNNTrans.
class NameList {
 public:
  explicit NameList(std::size_t heads) : heads_(heads) {}

  void add(const std::string& name) { names_.push_back(name); }
  void linear(const std::string& prefix) {
    add(prefix + "weight");
    add(prefix + "bias");
  }
  void sage(const std::string& prefix) {
    add(prefix + "w_self");
    add(prefix + "w_neigh");
  }
  void attention(const std::string& prefix) {
    for (std::size_t h = 0; h < heads_; ++h)
      for (const char* part : {"wq", "wk", "wv"})
        add(prefix + "head[" + std::to_string(h) + "]." + part);
    add(prefix + "w3");
  }
  void gat(const std::string& prefix) {
    for (std::size_t h = 0; h < heads_; ++h)
      for (const char* part : {"weight", "attn_l", "attn_r"})
        add(prefix + "head[" + std::to_string(h) + "]." + part);
    add(prefix + "out_proj");
  }
  /// PredictionHeads: two three-layer MLPs.
  void heads() {
    for (const char* head : {"slew_head", "delay_head"})
      for (std::size_t l = 0; l < 3; ++l)
        linear(std::string(head) + "[" + std::to_string(l) + "].");
  }
  [[nodiscard]] std::vector<std::string> take() { return std::move(names_); }

 private:
  std::size_t heads_;
  std::vector<std::string> names_;
};

std::string indexed(const char* name, std::size_t i) {
  return std::string(name) + "[" + std::to_string(i) + "].";
}

constexpr char kModelMagic[] = "GNNTRANS_MODEL";
constexpr std::uint32_t kModelVersion = 1;

}  // namespace

std::unique_ptr<WireModel> make_model(ModelKind kind, const ModelConfig& config) {
  if (config.node_feature_dim == 0)
    throw std::invalid_argument("make_model: node_feature_dim required");
  switch (kind) {
    case ModelKind::kGnnTrans:
      if (config.use_path_features && config.path_feature_dim == 0)
        throw std::invalid_argument("make_model: GNNTrans needs path_feature_dim");
      return std::make_unique<GnnTransModel>(config);
    case ModelKind::kGraphSage: return std::make_unique<GraphSageModel>(config);
    case ModelKind::kGcnii: return std::make_unique<GcniiModel>(config);
    case ModelKind::kGat: return std::make_unique<GatModel>(config);
    case ModelKind::kGraphTransformer:
      return std::make_unique<GraphTransformerModel>(config);
  }
  throw std::invalid_argument("make_model: unknown kind");
}

std::vector<std::string> parameter_names(const WireModel& model) {
  const ModelConfig& c = model.config();
  NameList names(c.heads);
  switch (model.kind()) {
    case ModelKind::kGnnTrans:
      for (std::size_t l = 0; l < c.gnn_layers; ++l) names.sage(indexed("gnn", l));
      for (std::size_t l = 0; l < c.transformer_layers; ++l)
        names.attention(indexed("attention", l));
      break;
    case ModelKind::kGraphSage:
      for (std::size_t l = 0; l < c.gnn_layers; ++l) names.sage(indexed("sage", l));
      break;
    case ModelKind::kGcnii:
      names.linear("input.");
      for (std::size_t l = 0; l < c.gnn_layers; ++l)
        names.add(indexed("gcnii", l) + "weight");
      break;
    case ModelKind::kGat:
      for (std::size_t l = 0; l < c.gnn_layers; ++l) names.gat(indexed("gat", l));
      break;
    case ModelKind::kGraphTransformer:
      names.linear("input.");
      for (std::size_t l = 0; l < c.gnn_layers; ++l) {
        names.attention(indexed("attention", l));
        names.linear(indexed("ffn", l) + "up.");
        names.linear(indexed("ffn", l) + "down.");
      }
      break;
  }
  names.heads();
  return names.take();
}

void save_model(std::ostream& out, const WireModel& model) {
  tensor::write_header(out, kModelMagic, kModelVersion);
  tensor::write_u32(out, static_cast<std::uint32_t>(model.kind()));
  const ModelConfig& c = model.config();
  for (std::size_t v : {c.node_feature_dim, c.path_feature_dim, c.hidden_dim,
                        c.gnn_layers, c.transformer_layers, c.heads, c.mlp_hidden})
    tensor::write_u32(out, static_cast<std::uint32_t>(v));
  tensor::write_u32(out, static_cast<std::uint32_t>(c.seed));
  std::uint32_t flags = 0;
  if (c.use_edge_weights) flags |= 1u;
  if (c.global_attention) flags |= 2u;
  if (c.use_path_features) flags |= 4u;
  if (c.cascade_delay_head) flags |= 8u;
  tensor::write_u32(out, flags);
  model.save_parameters(out);
}

std::unique_ptr<WireModel> load_model(std::istream& in) {
  tensor::check_header(in, kModelMagic, kModelVersion);
  const auto kind = static_cast<ModelKind>(tensor::read_u32(in));
  ModelConfig c;
  c.node_feature_dim = tensor::read_u32(in);
  c.path_feature_dim = tensor::read_u32(in);
  c.hidden_dim = tensor::read_u32(in);
  c.gnn_layers = tensor::read_u32(in);
  c.transformer_layers = tensor::read_u32(in);
  c.heads = tensor::read_u32(in);
  c.mlp_hidden = tensor::read_u32(in);
  c.seed = tensor::read_u32(in);
  const std::uint32_t flags = tensor::read_u32(in);
  c.use_edge_weights = (flags & 1u) != 0;
  c.global_attention = (flags & 2u) != 0;
  c.use_path_features = (flags & 4u) != 0;
  c.cascade_delay_head = (flags & 8u) != 0;

  std::unique_ptr<WireModel> model = make_model(kind, c);
  // Each loaded weight must have the shape the config gives a fresh model's.
  const std::vector<Tensor> fresh = model->parameters();
  model->load_parameters(in);
  const std::vector<Tensor> loaded = model->parameters();
  const std::vector<std::string> names = parameter_names(*model);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const Tensor &want = fresh[i], &got = loaded[i];
    if (got.rows() == want.rows() && got.cols() == want.cols()) continue;
    throw std::invalid_argument(
        model->name() + " weight '" +
        (i < names.size() ? names[i] : "#" + std::to_string(i)) + "' has shape " +
        std::to_string(got.rows()) + "x" + std::to_string(got.cols()) +
        ", the model config expects " + std::to_string(want.rows()) + "x" +
        std::to_string(want.cols()));
  }
  return model;
}

}  // namespace gnntrans::nn
