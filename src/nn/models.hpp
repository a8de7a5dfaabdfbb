/// \file models.hpp
/// The wire timing model zoo: GNNTrans (the paper's contribution) plus the
/// four graph-learning baselines it is compared against in Tables III-V.
///
/// All models share the same contract: consume a GraphSample, emit
/// standardized per-path slew and delay ([P,1] each). GNNTrans additionally
/// consumes the path feature matrix H in its pooling module (Eq. 4); the
/// baselines mean-pool node representations only, exactly as the paper's
/// experimental setup describes.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/graph_sample.hpp"
#include "nn/layers.hpp"
#include "nn/plan.hpp"
#include "nn/workspace.hpp"

namespace gnntrans::nn {

/// Which architecture a model instance implements.
enum class ModelKind : std::uint32_t {
  kGnnTrans = 0,
  kGraphSage = 1,
  kGcnii = 2,
  kGat = 3,
  kGraphTransformer = 4,
};

/// Returns the canonical display name ("GNNTrans", "GraphSage", ...).
[[nodiscard]] std::string to_string(ModelKind kind);

/// Hyperparameters shared by the zoo. For GNNTrans, gnn_layers is the paper's
/// L1 and transformer_layers is L2; baselines use gnn_layers as their total
/// depth L (the paper fixes L = 20 for all baselines).
struct ModelConfig {
  std::size_t node_feature_dim = 0;   ///< dx (required)
  std::size_t path_feature_dim = 0;   ///< dh (required for GNNTrans)
  std::size_t hidden_dim = 16;
  std::size_t gnn_layers = 4;
  std::size_t transformer_layers = 2;
  std::size_t heads = 4;
  std::size_t mlp_hidden = 32;
  std::uint64_t seed = 1;

  // Ablation switches (GNNTrans only; defaults reproduce the paper).
  bool use_edge_weights = true;    ///< Eq. (1) resistance weights vs mean agg
  bool global_attention = true;    ///< Eq. (2-3) global vs neighbor-masked
  bool use_path_features = true;   ///< Eq. (4) concat h_q vs mean-pool only
  bool cascade_delay_head = true;  ///< Eq. (6) delay head sees predicted slew
};

/// Abstract wire timing model.
class WireModel {
 public:
  virtual ~WireModel() = default;

  /// Predicts standardized slew/delay for every path of \p sample. With a
  /// compiled inference plan and autograd disabled (tensor::NoGradGuard) the
  /// plan runs on \p workspace's slab (a temporary one when null); otherwise
  /// the autograd path runs and \p workspace is unused. The workspace must
  /// not be shared by concurrent callers; use one per thread. When the plan
  /// serves and \p embedding is set, it also receives the pooled path
  /// embeddings ([P, d]) for a later forward_heads(); it is left as is when
  /// autograd serves.
  [[nodiscard]] WirePrediction forward(
      const GraphSample& sample, Workspace* workspace = nullptr,
      std::vector<float>* embedding = nullptr) const;

  /// The heads alone (GnnTransPlan::run_heads): forward()'s bits for a net
  /// whose pooled embeddings forward() stored in \p embedding, under the
  /// standardized path features \p h. Needs a compiled plan; throws
  /// std::logic_error without one.
  [[nodiscard]] WirePrediction forward_heads(
      std::span<const float> embedding, const tensor::Tensor& h,
      Workspace* workspace = nullptr) const;

  /// Compiles the tape-free inference plan (nn/plan.hpp) from the current
  /// weights. A model the plan does not cover keeps the autograd path.
  /// Throws std::invalid_argument naming the first weight whose shape does
  /// not match config(). The plan copies the weights: recompile after
  /// changing them.
  void compile_inference() { plan_ = GnnTransPlan::compile(*this); }
  /// Drops the compiled plan; training calls this before its first step.
  void discard_inference() noexcept { plan_.reset(); }
  [[nodiscard]] bool has_inference_plan() const noexcept {
    return plan_ != nullptr;
  }

  /// All trainable parameters (stable order).
  [[nodiscard]] virtual std::vector<tensor::Tensor> parameters() const = 0;

  [[nodiscard]] virtual ModelKind kind() const = 0;
  [[nodiscard]] std::string name() const { return to_string(kind()); }
  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }

  /// Writes/reads parameter payload (config handled by save_model/load_model).
  virtual void save_parameters(std::ostream& out) const = 0;
  virtual void load_parameters(std::istream& in) = 0;

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t parameter_count() const;

 protected:
  explicit WireModel(ModelConfig config) : config_(config) {}

  /// Architecture-specific autograd forward pass.
  [[nodiscard]] virtual WirePrediction run_forward(
      const GraphSample& sample) const = 0;

  ModelConfig config_;

 private:
  std::unique_ptr<GnnTransPlan> plan_;  ///< null: autograd serves
};

/// Instantiates a model with freshly initialized parameters.
[[nodiscard]] std::unique_ptr<WireModel> make_model(ModelKind kind,
                                                    const ModelConfig& config);

/// Serializes kind + config + parameters.
void save_model(std::ostream& out, const WireModel& model);

/// Restores a model saved by save_model. Throws std::runtime_error on a
/// malformed stream, and std::invalid_argument naming the first weight whose
/// shape differs from what the stored config gives a fresh model.
[[nodiscard]] std::unique_ptr<WireModel> load_model(std::istream& in);

/// The names of \p model's parameters, in parameters() order, e.g.
/// "attention[0].head[1].wk"; GNNTrans's are the inference plan's.
[[nodiscard]] std::vector<std::string> parameter_names(const WireModel& model);

}  // namespace gnntrans::nn
