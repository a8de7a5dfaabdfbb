/// \file trainer.hpp
/// End-to-end training loop (paper Sec. IV): minimize MSE of standardized
/// slew + delay over nets with Adam, one net per step.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/graph_sample.hpp"
#include "nn/models.hpp"

namespace gnntrans::core {

/// Training hyperparameters.
struct TrainConfig {
  std::size_t epochs = 40;
  float learning_rate = 2e-3f;
  float lr_decay = 0.97f;        ///< multiplicative per-epoch decay
  double grad_clip = 5.0;
  float weight_decay = 0.0f;     ///< decoupled (AdamW-style) when > 0
  float slew_loss_weight = 1.0f;
  float delay_loss_weight = 1.0f;
  std::uint64_t shuffle_seed = 7;
  /// Fraction of samples held out for validation (0 disables validation and
  /// early stopping). Held-out samples never receive gradient updates.
  double validation_fraction = 0.0;
  /// Stop after this many consecutive epochs without validation improvement
  /// (0 disables). Requires validation_fraction > 0.
  std::size_t early_stop_patience = 0;
  /// Called after each epoch with (epoch, mean training loss); may be empty.
  std::function<void(std::size_t, double)> on_epoch;
};

/// Per-run report.
struct TrainReport {
  std::vector<double> epoch_loss;       ///< mean per-sample training loss
  std::vector<double> validation_loss;  ///< empty when validation disabled
  bool stopped_early = false;
  double wall_seconds = 0.0;
};

/// Thrown by train_model when a step's gradient is not finite, before the
/// optimizer would write it into every weight.
class NonFiniteGradientError : public std::runtime_error {
 public:
  NonFiniteGradientError(std::size_t epoch, std::size_t sample,
                         const std::string& net_name);

  [[nodiscard]] std::size_t epoch() const noexcept { return epoch_; }
  /// Index of the sample in train_model's \p samples.
  [[nodiscard]] std::size_t sample() const noexcept { return sample_; }

 private:
  std::size_t epoch_;
  std::size_t sample_;
};

/// Trains \p model in place over \p samples. Throws NonFiniteGradientError
/// when a step's gradient norm is NaN or infinite (a NaN label, an
/// overflowing activation); the weights then hold the previous step's
/// values.
TrainReport train_model(nn::WireModel& model,
                        const std::vector<nn::GraphSample>& samples,
                        const TrainConfig& config);

/// Model-vs-golden evaluation in *seconds* space.
struct Evaluation {
  double slew_r2 = 0.0;
  double delay_r2 = 0.0;
  double slew_max_abs = 0.0;   ///< seconds
  double delay_max_abs = 0.0;  ///< seconds
  std::size_t path_count = 0;
  double inference_seconds = 0.0;
};

/// Runs inference (no grad) over samples and scores against the golden labels.
/// \p unstandardize_slew / _delay convert model outputs back to seconds.
[[nodiscard]] Evaluation evaluate_model(
    const nn::WireModel& model, const std::vector<nn::GraphSample>& samples,
    const std::function<double(double)>& unstandardize_slew,
    const std::function<double(double)>& unstandardize_delay);

}  // namespace gnntrans::core
