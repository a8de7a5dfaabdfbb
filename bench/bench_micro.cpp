// Micro-benchmarks (google-benchmark) for the substrate throughput numbers
// behind the paper's runtime story: golden transient sim vs analytical
// metrics vs feature extraction vs model inference.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "features/dataset.hpp"
#include "rcnet/generate.hpp"
#include "sim/moments.hpp"
#include "sim/transient.hpp"
#include "sim/wire_analysis.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

using namespace gnntrans;

namespace {

rcnet::RcNet make_net(std::size_t nodes, std::uint64_t seed = 9) {
  std::mt19937_64 rng(seed);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = static_cast<std::uint32_t>(nodes);
  cfg.max_nodes = static_cast<std::uint32_t>(nodes);
  return rcnet::generate_net(cfg, rng, "bench");
}

void BM_GoldenTransient(benchmark::State& state) {
  const rcnet::RcNet net = make_net(state.range(0));
  sim::TransientConfig cfg;
  cfg.steps = 800;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(net, cfg, 4e-11));
  state.SetLabel(std::to_string(net.node_count()) + " nodes");
}
BENCHMARK(BM_GoldenTransient)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

void BM_MomentsMna(benchmark::State& state) {
  const rcnet::RcNet net = make_net(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::compute_moments(net));
}
BENCHMARK(BM_MomentsMna)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

void BM_ElmoreTree(benchmark::State& state) {
  std::mt19937_64 rng(10);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = cfg.max_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.non_tree_fraction = 0.0;
  const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "t");
  for (auto _ : state) benchmark::DoNotOptimize(sim::elmore_tree(net));
}
BENCHMARK(BM_ElmoreTree)->Arg(40)->Arg(160);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::RcNet net = make_net(state.range(0));
  std::mt19937_64 rng(11);
  const features::NetContext ctx = features::random_context(lib, net, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(features::extract_features(net, ctx));
}
BENCHMARK(BM_FeatureExtraction)->Arg(40)->Arg(160);

/// Shared trained estimator for the inference benchmarks (built once).
const core::WireTimingEstimator& trained_estimator() {
  static const core::WireTimingEstimator estimator = [] {
    const auto lib = cell::CellLibrary::make_default();
    features::WireDatasetConfig cfg;
    cfg.net_count = 60;
    cfg.sim_config.steps = 300;
    cfg.seed = 12;
    const auto records = features::generate_wire_records(cfg, lib);
    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 16;
    opt.model.gnn_layers = 4;
    opt.model.transformer_layers = 2;
    opt.train.epochs = 5;
    return core::WireTimingEstimator::train(records, opt);
  }();
  return estimator;
}

void BM_GnnTransInference(benchmark::State& state) {
  const auto& est = trained_estimator();
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::RcNet net = make_net(state.range(0), 21);
  std::mt19937_64 rng(13);
  const features::NetContext ctx = features::random_context(lib, net, rng);
  for (auto _ : state) benchmark::DoNotOptimize(est.estimate(net, ctx));
  state.SetLabel(std::to_string(net.sinks.size()) + " paths");
}
BENCHMARK(BM_GnnTransInference)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

/// One training step of the served config (hidden 16, 4 Sage + 2 attention
/// layers, 4 heads, MLP 32) on one labelled net of \p nodes nodes: forward,
/// the trainer's loss, backward, gradient clipping and the Adam update.
/// tests/test_alloc.cpp counts the heap allocations of the same loop.
class TrainStep {
 public:
  explicit TrainStep(std::size_t nodes) {
    const auto lib = cell::CellLibrary::make_default();
    features::WireDatasetConfig cfg;
    cfg.net_count = 1;
    cfg.net_config.min_nodes = cfg.net_config.max_nodes =
        static_cast<std::uint32_t>(nodes);
    cfg.sim_config.steps = 300;
    cfg.seed = 14;
    const auto records = features::generate_wire_records(cfg, lib);
    if (records.empty()) return;
    features::Standardizer standardizer;
    standardizer.fit(records);
    sample_ = features::make_samples(records, standardizer).front();
    nn::ModelConfig mc;
    mc.node_feature_dim = features::kNodeFeatureCount;
    mc.path_feature_dim = features::kPathFeatureCount;
    mc.hidden_dim = 16;
    mc.gnn_layers = 4;
    mc.transformer_layers = 2;
    mc.heads = 4;
    mc.mlp_hidden = 32;
    model_ = nn::make_model(nn::ModelKind::kGnnTrans, mc);
    params_ = model_->parameters();
    optimizer_ = std::make_unique<tensor::Adam>(params_);
  }

  /// False when the golden timer dropped the net.
  [[nodiscard]] bool ready() const { return model_ != nullptr; }

  void run() {
    optimizer_->zero_grad();
    const nn::WirePrediction pred = model_->forward(sample_);
    tensor::Tensor loss =
        tensor::add(tensor::mse_loss(pred.slew, sample_.slew_label),
                    tensor::mse_loss(pred.delay, sample_.delay_label));
    loss.backward();
    benchmark::DoNotOptimize(tensor::clip_grad_norm(params_, 5.0));
    optimizer_->step();
    benchmark::DoNotOptimize(loss.item());
  }

  [[nodiscard]] std::string label() const {
    return std::to_string(sample_.node_count) + " nodes, " +
           std::to_string(sample_.path_count) + " paths";
  }

 private:
  nn::GraphSample sample_;
  std::unique_ptr<nn::WireModel> model_;
  std::vector<tensor::Tensor> params_;
  std::unique_ptr<tensor::Adam> optimizer_;
};

/// Steps 1..N of a fresh model. It trains one net over and over, so its
/// gradients shrink, Adam's moments turn subnormal after some thousands of
/// steps and a step slows: every reading takes the same N (kTrainSteps) so
/// that readings compare across builds, and BM_TrainStepDrift reads the
/// slow-down on its own.
void BM_TrainStep(benchmark::State& state) {
  TrainStep step(static_cast<std::size_t>(state.range(0)));
  if (!step.ready()) {
    state.SkipWithError("the golden timer dropped the net");
    return;
  }
  for (auto _ : state) step.run();
  state.SetLabel(step.label());
}
constexpr benchmark::IterationCount kTrainSteps = 500;
BENCHMARK(BM_TrainStep)->Arg(16)->Arg(40)->Arg(80)->Arg(160)->Iterations(kTrainSteps);

/// Steps 10,001..10,000+N of a fresh model on the 40-node net of
/// BM_TrainStep/40 (the first 10,000 untimed): its ratio to BM_TrainStep/40
/// is the subnormal drift.
void BM_TrainStepDrift(benchmark::State& state) {
  TrainStep step(static_cast<std::size_t>(state.range(0)));
  if (!step.ready()) {
    state.SkipWithError("the golden timer dropped the net");
    return;
  }
  for (std::int64_t i = 0; i < state.range(1); ++i) step.run();
  for (auto _ : state) step.run();
  state.SetLabel(step.label() + ", after " + std::to_string(state.range(1)) +
                 " steps");
}
BENCHMARK(BM_TrainStepDrift)->Args({40, 10000})->Iterations(kTrainSteps);

}  // namespace

BENCHMARK_MAIN();
