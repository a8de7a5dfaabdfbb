#include "core/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>
#include <sstream>

#include "core/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

namespace gnntrans::core {

namespace {

/// Deep-copies a model through its serialized form.
std::unique_ptr<nn::WireModel> clone_model(const nn::WireModel& model) {
  std::stringstream buffer;
  nn::save_model(buffer, model);
  return nn::load_model(buffer);
}

/// Copies master parameter values into a replica (shapes always match).
void broadcast(const std::vector<tensor::Tensor>& master,
               std::vector<tensor::Tensor>& replica) {
  for (std::size_t i = 0; i < master.size(); ++i)
    std::copy(master[i].values().begin(), master[i].values().end(),
              replica[i].values().begin());
}

}  // namespace

TrainReport train_model_parallel(nn::WireModel& model,
                                 const std::vector<nn::GraphSample>& samples,
                                 const ParallelTrainConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  TrainReport report;
  model.discard_inference();  // the plan's weight copies go stale below
  if (samples.empty()) return report;
  const std::size_t workers = std::max<std::size_t>(1, config.workers);

  // Replicas (each with its own tape and gradient buffers).
  std::vector<std::unique_ptr<nn::WireModel>> replicas;
  std::vector<std::vector<tensor::Tensor>> replica_params;
  for (std::size_t w = 0; w < workers; ++w) {
    replicas.push_back(clone_model(model));
    replica_params.push_back(replicas.back()->parameters());
  }

  std::vector<tensor::Tensor> master_params = model.parameters();
  tensor::Adam::Config adam_cfg;
  adam_cfg.learning_rate = config.base.learning_rate;
  adam_cfg.weight_decay = config.base.weight_decay;
  tensor::Adam optimizer(master_params, adam_cfg);

  std::mt19937_64 rng(config.base.shuffle_seed);
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // One persistent pool for the whole run; workers are parked between
  // mini-batches instead of being respawned per batch.
  ThreadPool pool(workers);

  float lr = config.base.learning_rate;
  for (std::size_t epoch = 0; epoch < config.base.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double loss_sum = 0.0;

    for (std::size_t batch = 0; batch < order.size(); batch += workers) {
      const std::size_t batch_size = std::min(workers, order.size() - batch);

      // Fan out: each shard computes gradients over one sample. Shard w uses
      // replica w exclusively, whichever pool thread picks it up.
      std::vector<double> worker_loss(batch_size, 0.0);
      pool.parallel_for(batch_size, [&](std::size_t w, std::size_t) {
        nn::WireModel& replica = *replicas[w];
        for (tensor::Tensor& p : replica_params[w]) p.zero_grad();
        const nn::GraphSample& sample = samples[order[batch + w]];
        const nn::WirePrediction pred = replica.forward(sample);
        tensor::Tensor loss = tensor::add(
            tensor::scale(tensor::mse_loss(pred.slew, sample.slew_label),
                          config.base.slew_loss_weight),
            tensor::scale(tensor::mse_loss(pred.delay, sample.delay_label),
                          config.base.delay_loss_weight));
        loss.backward();
        worker_loss[w] = loss.item();
      });

      // Reduce: sum shard gradients into the master (mean over the batch so
      // the effective step is comparable to the sequential trainer's).
      optimizer.zero_grad();
      const float inv_batch = 1.0f / static_cast<float>(batch_size);
      for (std::size_t i = 0; i < master_params.size(); ++i) {
        master_params[i].impl()->ensure_grad();
        auto grad = master_params[i].grad();
        for (std::size_t w = 0; w < batch_size; ++w) {
          const auto shard = replica_params[w][i].grad();
          if (shard.empty()) continue;
          for (std::size_t j = 0; j < grad.size(); ++j)
            grad[j] += shard[j] * inv_batch;
        }
      }
      clip_grad_norm(master_params, config.base.grad_clip);
      optimizer.step();

      // Broadcast updated weights to every replica.
      for (std::size_t w = 0; w < workers; ++w)
        broadcast(master_params, replica_params[w]);

      for (double l : worker_loss) loss_sum += l;
    }

    const double mean_loss = loss_sum / static_cast<double>(order.size());
    report.epoch_loss.push_back(mean_loss);
    if (config.base.on_epoch) config.base.on_epoch(epoch, mean_loss);
    lr *= config.base.lr_decay;
    optimizer.set_learning_rate(lr);
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return report;
}

}  // namespace gnntrans::core
