// Edge-case and failure-injection tests across module boundaries: wrong
// inputs must fail loudly, degenerate-but-legal inputs must work, and
// inference must be side-effect free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>

#include "baseline/gbdt.hpp"
#include "core/estimator.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "rcnet/generate.hpp"
#include "sim/transient.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace gnntrans;

// ---- Golden simulator window handling ----

TEST(TransientRobustness, AutoWindowSettlesExtremeRcWithCoarseSteps) {
  // A very slow net (tau ~ 1ns) must still settle: the simulation window is
  // auto-sized from the Elmore estimate, so even a coarse step count finds
  // all threshold crossings by interpolation.
  rcnet::RcNet net;
  net.source = 0;
  net.sinks = {1};
  net.ground_cap = {1e-15, 200e-15};
  net.resistors = {{0, 1, 5000.0}};
  sim::TransientConfig cfg;
  cfg.steps = 32;
  cfg.si.enabled = false;
  const sim::TransientResult res = sim::simulate(net, cfg, 1e-9);
  EXPECT_TRUE(res.sinks[0].settled);
  EXPECT_GT(res.sinks[0].delay, 0.0);
}

TEST(TransientRobustness, NoExtensionRunsWhenWindowSuffices) {
  rcnet::RcNet net;
  net.source = 0;
  net.sinks = {1};
  net.ground_cap = {1e-15, 5e-15};
  net.resistors = {{0, 1, 50.0}};
  sim::TransientConfig cfg;
  cfg.steps = 256;
  cfg.max_extensions = 4;
  cfg.si.enabled = false;
  const sim::TransientResult res = sim::simulate(net, cfg, 3e-11);
  EXPECT_TRUE(res.sinks[0].settled);
  EXPECT_EQ(res.steps_executed, 256u);  // settled inside the base window
}

TEST(TransientRobustness, CoarseAndFineStepsAgreeOnDelay) {
  rcnet::RcNet net;
  net.source = 0;
  net.sinks = {1};
  net.ground_cap = {1e-15, 20e-15};
  net.resistors = {{0, 1, 500.0}};
  sim::TransientConfig coarse;
  coarse.steps = 200;
  coarse.si.enabled = false;
  sim::TransientConfig fine = coarse;
  fine.steps = 4000;
  const auto a = sim::simulate(net, coarse, 3e-11);
  const auto b = sim::simulate(net, fine, 3e-11);
  ASSERT_TRUE(a.sinks[0].settled && b.sinks[0].settled);
  // Trapezoidal integration is 2nd order: 20x fewer steps, tiny delay shift.
  EXPECT_NEAR(a.sinks[0].delay, b.sinks[0].delay, 0.02 * b.sinks[0].delay);
}

TEST(TransientRobustness, TwoNodeMinimalNetWorks) {
  rcnet::RcNet net;
  net.source = 0;
  net.sinks = {1};
  net.ground_cap = {0.5e-15, 1e-15};
  net.resistors = {{0, 1, 10.0}};
  const sim::TransientResult res = sim::simulate(net, sim::TransientConfig{}, 2e-11);
  EXPECT_TRUE(res.sinks[0].settled);
  EXPECT_GT(res.sinks[0].slew, 0.0);
}

// ---- Estimator API misuse ----

std::vector<features::WireRecord> tiny_records(std::size_t n) {
  const auto lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig cfg;
  cfg.net_count = n;
  cfg.sim_config.steps = 200;
  cfg.seed = 99;
  return features::generate_wire_records(cfg, lib);
}

core::WireTimingEstimator tiny_estimator() {
  core::WireTimingEstimator::Options opt;
  opt.model.hidden_dim = 8;
  opt.model.gnn_layers = 2;
  opt.model.transformer_layers = 1;
  opt.model.heads = 2;
  opt.train.epochs = 2;
  return core::WireTimingEstimator::train(tiny_records(10), opt);
}

TEST(EstimatorRobustness, MismatchedContextLoadsThrow) {
  const auto est = tiny_estimator();
  const auto recs = tiny_records(2);
  features::NetContext bad = recs[0].context;
  bad.loads.clear();
  EXPECT_THROW(est.estimate(recs[0].net, bad), std::invalid_argument);
}

TEST(EstimatorRobustness, InferenceLeavesGradientsUntouched) {
  const auto est = tiny_estimator();
  const auto recs = tiny_records(2);
  // Clear the residue of training, then run inference: NoGradGuard inside
  // estimate() must prevent any new gradient accumulation.
  for (auto p : est.model().parameters()) p.zero_grad();
  (void)est.estimate(recs[0].net, recs[0].context);
  for (const auto& p : est.model().parameters())
    EXPECT_TRUE(p.grad().empty() ||
                std::all_of(p.grad().begin(), p.grad().end(),
                            [](float g) { return g == 0.0f; }));
}

TEST(EstimatorRobustness, InferenceIsDeterministic) {
  const auto est = tiny_estimator();
  const auto recs = tiny_records(3);
  const auto a = est.estimate(recs[1].net, recs[1].context);
  const auto b = est.estimate(recs[1].net, recs[1].context);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_DOUBLE_EQ(a[q].delay, b[q].delay);
    EXPECT_DOUBLE_EQ(a[q].slew, b[q].slew);
  }
}

TEST(EstimatorRobustness, CorruptCheckpointRejected) {
  const auto est = tiny_estimator();
  std::stringstream buf;
  est.save(buf);
  std::string payload = buf.str();
  payload[10] ^= 0x5A;  // flip bits inside the magic/header region
  std::stringstream corrupt(payload);
  EXPECT_THROW(core::WireTimingEstimator::load(corrupt), std::runtime_error);
}

TEST(EstimatorRobustness, TruncatedCheckpointRejected) {
  const auto est = tiny_estimator();
  std::stringstream buf;
  est.save(buf);
  std::string payload = buf.str();
  payload.resize(payload.size() / 3);
  std::stringstream cut(payload);
  EXPECT_THROW(core::WireTimingEstimator::load(cut), std::runtime_error);
}

TEST(EstimatorRobustness, MisshapenWeightRejectedAtLoad) {
  const auto est = tiny_estimator();
  std::stringstream buf;
  est.save(buf);
  std::string bytes = buf.str();
  // The model block: magic, then version, kind, seven dims, seed and flags
  // (u32 each); then gnn[0].w_self and gnn[0].w_neigh, each stored as
  // [u64 rows][u64 cols][floats]. Swapping w_neigh's rows and cols keeps
  // every byte count, so only a shape check can notice.
  const std::size_t magic = bytes.find("GNNTRANS_MODEL");
  ASSERT_NE(magic, std::string::npos);
  const std::size_t w_self = magic + 14 + 11 * 4;
  std::uint64_t dims[2];
  std::memcpy(dims, bytes.data() + w_self, sizeof(dims));
  const std::size_t w_neigh = w_self + 16 + dims[0] * dims[1] * sizeof(float);
  std::memcpy(dims, bytes.data() + w_neigh, sizeof(dims));
  ASSERT_NE(dims[0], dims[1]);
  std::swap(dims[0], dims[1]);
  std::memcpy(bytes.data() + w_neigh, dims, sizeof(dims));

  std::stringstream bad(bytes);
  try {
    (void)core::WireTimingEstimator::load(bad);
    FAIL() << "a misshapen weight must be rejected at load";
  } catch (const core::CheckpointError& e) {
    EXPECT_EQ(e.status().code(), core::ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("gnn[0].w_neigh"), std::string::npos)
        << e.what();
  }
}

TEST(EstimatorRobustness, MisshapenGraphTransformerHeadRejectedAtLoad) {
  core::WireTimingEstimator::Options opt;
  opt.kind = nn::ModelKind::kGraphTransformer;
  opt.model.hidden_dim = 16;
  opt.model.gnn_layers = 1;
  opt.model.heads = 4;
  opt.train.epochs = 1;
  const auto est = core::WireTimingEstimator::train(tiny_records(6), opt);
  std::stringstream buf;
  est.save(buf);
  std::string bytes = buf.str();
  // The model block's weights follow its header: input.weight, input.bias,
  // then attention[0].head[0].wq, [u64 rows][u64 cols][floats] each. Store
  // that wq as 16x3: its rows' first three floats, the file otherwise whole.
  const std::size_t magic = bytes.find("GNNTRANS_MODEL");
  ASSERT_NE(magic, std::string::npos);
  std::size_t at = magic + 14 + 11 * 4;
  std::uint64_t dims[2];
  for (int skip = 0; skip < 2; ++skip) {
    std::memcpy(dims, bytes.data() + at, sizeof(dims));
    at += sizeof(dims) + dims[0] * dims[1] * sizeof(float);
  }
  std::memcpy(dims, bytes.data() + at, sizeof(dims));
  ASSERT_EQ(dims[0], 16u);
  ASSERT_EQ(dims[1], 4u);
  std::string wq;
  const std::uint64_t shape[2] = {16, 3};
  wq.append(reinterpret_cast<const char*>(shape), sizeof(shape));
  for (std::size_t r = 0; r < 16; ++r)
    wq.append(bytes, at + sizeof(dims) + r * 4 * sizeof(float), 3 * sizeof(float));
  bytes.replace(at, sizeof(dims) + 16 * 4 * sizeof(float), wq);

  std::stringstream bad(bytes);
  try {
    (void)core::WireTimingEstimator::load(bad);
    FAIL() << "a misshapen GraphTransformer weight must be rejected at load";
  } catch (const core::CheckpointError& e) {
    EXPECT_EQ(e.status().code(), core::ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("attention[0].head[0].wq"), std::string::npos)
        << e.what();
  }
}

// ---- GBDT structural invariants ----

TEST(GbdtRobustness, DepthBoundRespected) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 256; ++i) {
    const float a = dist(rng);
    x.push_back({a});
    y.push_back(std::sin(20.0 * a));
  }
  baseline::RegressionTree tree;
  tree.fit(x, y, /*max_depth=*/2, /*min_samples_leaf=*/1);
  // Depth 2 => at most 1 + 2 + 4 = 7 nodes.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(GbdtRobustness, SingleSampleYieldsConstantLeaf) {
  baseline::RegressionTree tree;
  tree.fit({{1.0f}}, {42.0}, 4, 1);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<float>{0.0f}), 42.0);
}

// ---- Generator stress ----

TEST(GeneratorRobustness, MinimumSizeNetsAreValid) {
  std::mt19937_64 rng(4);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = 3;
  cfg.max_nodes = 3;
  cfg.min_sinks = 1;
  cfg.max_sinks = 1;
  for (int i = 0; i < 30; ++i) {
    const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "tiny");
    EXPECT_TRUE(net.validate().empty());
    EXPECT_TRUE(sim::compute_moments(net).m1[net.sinks[0]] > 0.0);
  }
}

TEST(GeneratorRobustness, HugeFanoutHonored) {
  std::mt19937_64 rng(5);
  rcnet::NetGenConfig cfg;
  const rcnet::RcNet net = rcnet::generate_net_for_fanout(cfg, rng, "wide", 40);
  EXPECT_EQ(net.sinks.size(), 40u);
  EXPECT_TRUE(net.validate().empty());
}

TEST(GeneratorRobustness, BenchmarkNonTreeFractionsTrackTargets) {
  // Per design the sample is small (tens of nets), so allow wide slop there
  // and check the aggregate across all 18 designs tightly.
  const auto lib = cell::CellLibrary::make_default();
  double total_nets = 0.0, total_non_tree = 0.0, total_target = 0.0;
  for (const netlist::BenchmarkSpec& spec : netlist::paper_benchmarks(1.0)) {
    const netlist::Design d =
        netlist::generate_design(spec.config, lib, spec.name);
    const double fraction = static_cast<double>(d.non_tree_net_count()) /
                            static_cast<double>(d.net_count());
    EXPECT_NEAR(fraction, spec.config.net_config.non_tree_fraction, 0.25)
        << spec.name;
    total_nets += static_cast<double>(d.net_count());
    total_non_tree += static_cast<double>(d.non_tree_net_count());
    total_target += spec.config.net_config.non_tree_fraction *
                    static_cast<double>(d.net_count());
  }
  EXPECT_NEAR(total_non_tree / total_nets, total_target / total_nets, 0.05);
}

// ---- Dataset / standardizer degenerate input ----

TEST(DatasetRobustness, StandardizerRejectsEmptyFit) {
  features::Standardizer std_;
  EXPECT_THROW(std_.fit({}), std::logic_error);
}

TEST(DatasetRobustness, SingleRecordDatasetTrains) {
  const auto recs = tiny_records(1);
  core::WireTimingEstimator::Options opt;
  opt.model.hidden_dim = 8;
  opt.model.gnn_layers = 1;
  opt.model.transformer_layers = 1;
  opt.model.heads = 2;
  opt.train.epochs = 2;
  const auto est = core::WireTimingEstimator::train(recs, opt);
  EXPECT_EQ(est.estimate(recs[0].net, recs[0].context).size(),
            recs[0].net.sinks.size());
}

}  // namespace
