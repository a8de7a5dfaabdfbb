#include "core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <random>

#include "core/metrics.hpp"
#include "core/telemetry/telemetry.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

namespace gnntrans::core {

namespace {

/// Training metrics in the global registry: epoch progress plus the latest
/// training/validation losses as gauges (scrape-friendly for loss curves).
struct TrainMetrics {
  telemetry::Counter epochs = telemetry::MetricsRegistry::global().counter(
      "gnntrans_train_epochs_total", "Training epochs completed");
  telemetry::Gauge loss = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_train_loss", "Mean training loss of the last epoch");
  telemetry::Gauge val_loss = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_train_validation_loss",
      "Validation loss of the last epoch (0 when validation is disabled)");

  static const TrainMetrics& get() {
    static const TrainMetrics metrics;
    return metrics;
  }
};

/// Hands this thread's tape slab back when training returns or throws.
struct TapeRelease {
  TapeRelease() = default;
  TapeRelease(const TapeRelease&) = delete;
  TapeRelease& operator=(const TapeRelease&) = delete;
  ~TapeRelease() { tensor::release_tape(); }
};

}  // namespace

NonFiniteGradientError::NonFiniteGradientError(std::size_t epoch,
                                               std::size_t sample,
                                               const std::string& net_name)
    : std::runtime_error("train_model: non-finite gradient in epoch " +
                         std::to_string(epoch) + " at sample " +
                         std::to_string(sample) + " (net '" + net_name + "')"),
      epoch_(epoch),
      sample_(sample) {}

TrainReport train_model(nn::WireModel& model,
                        const std::vector<nn::GraphSample>& samples,
                        const TrainConfig& config) {
  const telemetry::TraceSpan train_span("train_model", "train");
  const TapeRelease tape_release;
  const auto start = std::chrono::steady_clock::now();
  TrainReport report;
  // A compiled plan holds copies of the weights this loop is about to change.
  model.discard_inference();
  if (samples.empty()) return report;

  std::vector<tensor::Tensor> params = model.parameters();
  tensor::Adam::Config adam_cfg;
  adam_cfg.learning_rate = config.learning_rate;
  adam_cfg.weight_decay = config.weight_decay;
  tensor::Adam optimizer(params, adam_cfg);

  // Deterministic validation split: the tail of a seeded shuffle.
  std::mt19937_64 rng(config.shuffle_seed);
  std::vector<std::size_t> indices(samples.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::shuffle(indices.begin(), indices.end(), rng);
  std::size_t val_count = 0;
  if (config.validation_fraction > 0.0 && samples.size() >= 4)
    val_count = std::min(
        samples.size() / 2,
        static_cast<std::size_t>(config.validation_fraction *
                                 static_cast<double>(samples.size())));
  std::vector<std::size_t> val_set(indices.end() - val_count, indices.end());
  std::vector<std::size_t> order(indices.begin(), indices.end() - val_count);

  auto sample_loss = [&](const nn::GraphSample& sample,
                         const nn::WirePrediction& pred) {
    return tensor::add(
        tensor::scale(tensor::mse_loss(pred.slew, sample.slew_label),
                      config.slew_loss_weight),
        tensor::scale(tensor::mse_loss(pred.delay, sample.delay_label),
                      config.delay_loss_weight));
  };

  double best_val = std::numeric_limits<double>::infinity();
  std::size_t stale_epochs = 0;

  float lr = config.learning_rate;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    char epoch_name[48];
    std::snprintf(epoch_name, sizeof(epoch_name), "train_epoch_%zu", epoch);
    const telemetry::TraceSpan epoch_span(epoch_name, "train");
    const auto epoch_start = std::chrono::steady_clock::now();
    std::shuffle(order.begin(), order.end(), rng);
    double loss_sum = 0.0;
    for (std::size_t idx : order) {
      const nn::GraphSample& sample = samples[idx];
      optimizer.zero_grad();
      const nn::WirePrediction pred = model.forward(sample);
      tensor::Tensor loss = sample_loss(sample, pred);
      loss.backward();
      // A NaN norm fails clip_grad_norm's comparison, so it would reach
      // every weight through the Adam step.
      if (!std::isfinite(clip_grad_norm(params, config.grad_clip)))
        throw NonFiniteGradientError(epoch, idx, sample.net_name);
      optimizer.step();
      loss_sum += loss.item();
    }
    const double mean_loss =
        order.empty() ? 0.0 : loss_sum / static_cast<double>(order.size());
    report.epoch_loss.push_back(mean_loss);
    TrainMetrics::get().epochs.inc();
    TrainMetrics::get().loss.set(mean_loss);

    // One flight record per epoch: the black box shows training progress the
    // same way it shows serving decisions (outcome "train", total = epoch
    // wall time).
    telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
    if (flight.enabled()) {
      telemetry::FlightRecord fr;
      fr.set_net(epoch_name);
      fr.set_outcome("train");
      const double epoch_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        epoch_start)
              .count();
      fr.total_us = static_cast<float>(epoch_seconds * 1e6);
      flight.record(fr);
    }

    if (config.on_epoch) config.on_epoch(epoch, mean_loss);
    lr *= config.lr_decay;
    optimizer.set_learning_rate(lr);

    if (!val_set.empty()) {
      tensor::NoGradGuard no_grad;
      double val_sum = 0.0;
      for (std::size_t idx : val_set)
        val_sum += sample_loss(samples[idx], model.forward(samples[idx])).item();
      const double val_loss = val_sum / static_cast<double>(val_set.size());
      report.validation_loss.push_back(val_loss);
      TrainMetrics::get().val_loss.set(val_loss);
      if (val_loss < best_val - 1e-9) {
        best_val = val_loss;
        stale_epochs = 0;
      } else if (config.early_stop_patience > 0 &&
                 ++stale_epochs >= config.early_stop_patience) {
        report.stopped_early = true;
        break;
      }
    }
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return report;
}

Evaluation evaluate_model(const nn::WireModel& model,
                          const std::vector<nn::GraphSample>& samples,
                          const std::function<double(double)>& unstandardize_slew,
                          const std::function<double(double)>& unstandardize_delay) {
  tensor::NoGradGuard no_grad;
  Evaluation eval;

  std::vector<double> slew_pred, slew_true, delay_pred, delay_true;
  const auto start = std::chrono::steady_clock::now();
  for (const nn::GraphSample& sample : samples) {
    const nn::WirePrediction pred = model.forward(sample);
    for (std::size_t q = 0; q < sample.path_count; ++q) {
      slew_pred.push_back(unstandardize_slew(pred.slew(q, 0)));
      delay_pred.push_back(unstandardize_delay(pred.delay(q, 0)));
      slew_true.push_back(sample.slew_seconds[q]);
      delay_true.push_back(sample.delay_seconds[q]);
    }
  }
  eval.inference_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  eval.path_count = slew_true.size();
  if (eval.path_count == 0) return eval;
  eval.slew_r2 = r2_score(slew_pred, slew_true);
  eval.delay_r2 = r2_score(delay_pred, delay_true);
  eval.slew_max_abs = max_abs_error(slew_pred, slew_true);
  eval.delay_max_abs = max_abs_error(delay_pred, delay_true);
  return eval;
}

}  // namespace gnntrans::core
