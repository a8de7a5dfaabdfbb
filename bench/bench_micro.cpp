// Micro-benchmarks (google-benchmark) for the substrate throughput numbers
// behind the paper's runtime story: golden transient sim vs analytical
// metrics vs feature extraction vs model inference, the forward pass on the
// compiled plan against autograd, and one training step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
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

rcnet::RcNet make_net(std::size_t nodes) {
  std::mt19937_64 rng(9);
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

/// The one labelled net of \p nodes nodes (golden slew and delay on every
/// path, random context) that the inference, forward and training
/// benchmarks all read, so their ratios compare the same net. Null when the
/// golden timer dropped it.
const features::WireRecord* labelled_net(std::size_t nodes) {
  static std::map<std::size_t, std::vector<features::WireRecord>> nets;
  auto [it, fresh] = nets.try_emplace(nodes);
  if (fresh) {
    features::WireDatasetConfig cfg;
    cfg.net_count = 1;
    cfg.net_config.min_nodes = cfg.net_config.max_nodes =
        static_cast<std::uint32_t>(nodes);
    cfg.sim_config.steps = 300;
    cfg.seed = 21;
    it->second =
        features::generate_wire_records(cfg, cell::CellLibrary::make_default());
  }
  return it->second.empty() ? nullptr : &it->second.front();
}

std::string net_label(const features::WireRecord& net) {
  return std::to_string(net.net.node_count()) + " nodes, " +
         std::to_string(net.delay_labels.size()) + " paths";
}

/// Quartiles over repetitions, so that a ratio of two benchmarks is read
/// with its spread: --benchmark_repetitions=20
/// --benchmark_enable_random_interleaving=true reports _q1 and _q3 rows.
double quartile(const std::vector<double>& v, double q) {
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const double at = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (at - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}
double q1(const std::vector<double>& v) { return quartile(v, 0.25); }
double q3(const std::vector<double>& v) { return quartile(v, 0.75); }

/// estimate(): featurization and the compiled plan's forward pass.
void BM_GnnTransInference(benchmark::State& state) {
  const auto& est = trained_estimator();
  const features::WireRecord* net = labelled_net(state.range(0));
  if (net == nullptr) {
    state.SkipWithError("the golden timer dropped the net");
    return;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(est.estimate(net->net, net->context));
  state.SetLabel(net_label(*net));
}
BENCHMARK(BM_GnnTransInference)
    ->Arg(16)->Arg(40)->Arg(80)->Arg(160)
    ->ComputeStatistics("q1", q1)
    ->ComputeStatistics("q3", q3);

/// The forward pass alone on a standardized sample, served by the compiled
/// plan on one warm Workspace (as a serving worker), or by autograd: a
/// plan-less copy of the same weights under NoGradGuard, which is how the
/// model was served before the plan.
void BM_GnnTransForward(benchmark::State& state, bool autograd) {
  const auto& est = trained_estimator();
  const features::WireRecord* net = labelled_net(state.range(0));
  if (net == nullptr) {
    state.SkipWithError("the golden timer dropped the net");
    return;
  }
  const nn::GraphSample sample = est.standardizer().make_sample(*net);
  std::unique_ptr<nn::WireModel> copy;
  if (autograd) {
    std::stringstream bytes;
    nn::save_model(bytes, est.model());
    copy = nn::load_model(bytes);
  }
  const nn::WireModel& model = copy ? *copy : est.model();
  const tensor::NoGradGuard no_grad;
  nn::Workspace ws;
  for (auto _ : state) benchmark::DoNotOptimize(model.forward(sample, &ws));
  state.SetLabel(net_label(*net));
}
BENCHMARK_CAPTURE(BM_GnnTransForward, plan, false)
    ->Arg(16)->Arg(40)->Arg(80)->Arg(160);
BENCHMARK_CAPTURE(BM_GnnTransForward, autograd, true)
    ->Arg(16)->Arg(40)->Arg(80)->Arg(160);

/// One training step of the served config (hidden 16, 4 Sage + 2 attention
/// layers, 4 heads, MLP 32) on labelled_net(\p nodes): forward, the
/// trainer's loss, backward, gradient clipping and the Adam update.
/// tests/test_alloc.cpp counts the heap allocations of the same loop.
class TrainStep {
 public:
  explicit TrainStep(std::size_t nodes) {
    const features::WireRecord* net = labelled_net(nodes);
    if (net == nullptr) return;
    const std::vector<features::WireRecord> records{*net};
    label_ = net_label(*net);
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

  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  std::string label_;
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
BENCHMARK(BM_TrainStep)
    ->Arg(16)->Arg(40)->Arg(80)->Arg(160)
    ->Iterations(kTrainSteps)
    ->ComputeStatistics("q1", q1)
    ->ComputeStatistics("q3", q3);

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
