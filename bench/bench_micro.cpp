// Micro-benchmarks (google-benchmark) for the substrate throughput numbers
// behind the paper's runtime story: golden transient sim vs analytical
// metrics vs feature extraction vs model inference.
#include <benchmark/benchmark.h>

#include <random>

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

void BM_TrainStep(benchmark::State& state) {
  // One training step of the served config (hidden 16, 4 Sage + 2 attention
  // layers, 4 heads, MLP 32) on one labelled net: forward, the trainer's
  // loss, backward, gradient clipping and the Adam update.
  const auto lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig cfg;
  cfg.net_count = 1;
  cfg.net_config.min_nodes = cfg.net_config.max_nodes =
      static_cast<std::uint32_t>(state.range(0));
  cfg.sim_config.steps = 300;
  cfg.seed = 14;
  const auto records = features::generate_wire_records(cfg, lib);
  if (records.empty()) {
    state.SkipWithError("the golden timer dropped the net");
    return;
  }
  features::Standardizer standardizer;
  standardizer.fit(records);
  const nn::GraphSample sample = features::make_samples(records, standardizer).front();
  nn::ModelConfig mc;
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  mc.hidden_dim = 16;
  mc.gnn_layers = 4;
  mc.transformer_layers = 2;
  mc.heads = 4;
  mc.mlp_hidden = 32;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  std::vector<tensor::Tensor> params = model->parameters();
  tensor::Adam optimizer(params);
  for (auto _ : state) {
    optimizer.zero_grad();
    const nn::WirePrediction pred = model->forward(sample);
    tensor::Tensor loss =
        tensor::add(tensor::mse_loss(pred.slew, sample.slew_label),
                    tensor::mse_loss(pred.delay, sample.delay_label));
    loss.backward();
    benchmark::DoNotOptimize(tensor::clip_grad_norm(params, 5.0));
    optimizer.step();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetLabel(std::to_string(sample.node_count) + " nodes, " +
                 std::to_string(sample.path_count) + " paths");
}
BENCHMARK(BM_TrainStep)->Arg(16)->Arg(40)->Arg(80)->Arg(160);

}  // namespace

BENCHMARK_MAIN();
