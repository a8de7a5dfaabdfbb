// Cross-module integration tests: the paper's claims at miniature scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "baseline/dac20.hpp"
#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "rcnet/spef.hpp"

namespace {

using namespace gnntrans;

std::vector<features::WireRecord> dataset(std::size_t n, std::uint64_t seed,
                                          double non_tree_fraction = 0.5) {
  const auto lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig cfg;
  cfg.net_count = n;
  cfg.seed = seed;
  cfg.sim_config.steps = 400;
  cfg.net_config.non_tree_fraction = non_tree_fraction;
  return features::generate_wire_records(cfg, lib);
}

core::WireTimingEstimator::Options options(nn::ModelKind kind,
                                           std::size_t epochs = 25) {
  core::WireTimingEstimator::Options opt;
  opt.kind = kind;
  opt.model.hidden_dim = 16;
  opt.model.gnn_layers = 3;
  opt.model.transformer_layers = 2;
  opt.model.heads = 4;
  opt.train.epochs = epochs;
  return opt;
}

// The paper's core claim at miniature scale: GNNTrans generalizes to unseen
// nets with high R^2 on both targets.
TEST(EndToEnd, GnnTransGeneralizesToUnseenNets) {
  const auto recs = dataset(150, 101);
  const std::vector<features::WireRecord> train(recs.begin(), recs.begin() + 120);
  const std::vector<features::WireRecord> test(recs.begin() + 120, recs.end());

  const auto est = core::WireTimingEstimator::train(train,
                                                    options(nn::ModelKind::kGnnTrans));
  const core::Evaluation eval = est.evaluate(test);
  EXPECT_GT(eval.delay_r2, 0.9);
  EXPECT_GT(eval.slew_r2, 0.75);
}

// Table III's headline ordering: GNNTrans beats the DAC'20 baseline on
// non-tree nets (where loop-breaking hurts).
TEST(EndToEnd, GnnTransBeatsDac20OnNonTreeNets) {
  const auto recs = dataset(160, 103, /*non_tree_fraction=*/1.0);
  const std::vector<features::WireRecord> train(recs.begin(), recs.begin() + 128);
  const std::vector<features::WireRecord> test(recs.begin() + 128, recs.end());

  const auto gnn = core::WireTimingEstimator::train(
      train, options(nn::ModelKind::kGnnTrans, 30));
  const core::Evaluation gnn_eval = gnn.evaluate(test);

  baseline::Dac20Estimator dac;
  baseline::GbdtConfig gcfg;
  gcfg.trees = 80;
  dac.train(train, gcfg);
  std::vector<double> pred, truth;
  for (const auto& rec : test) {
    const auto p = dac.estimate(rec.net, rec.context);
    for (std::size_t q = 0; q < p.size(); ++q) {
      pred.push_back(p[q].delay);
      truth.push_back(rec.delay_labels[q]);
    }
  }
  const double dac_r2 = core::r2_score(pred, truth);
  EXPECT_GT(gnn_eval.delay_r2, dac_r2);
}

// SPEF in, timing out: the deployment path an external user would take.
TEST(EndToEnd, SpefRoundTripFeedsEstimator) {
  const auto recs = dataset(40, 107);
  const auto est =
      core::WireTimingEstimator::train(recs, options(nn::ModelKind::kGnnTrans, 10));

  // Export a net to SPEF, parse it back, estimate timing on the parsed net.
  const features::WireRecord& rec = recs.front();
  const auto parsed = rcnet::net_from_spef(rcnet::to_spef(rec.net));
  ASSERT_TRUE(parsed.has_value());
  const auto direct = est.estimate(rec.net, rec.context);
  const auto via_spef = est.estimate(*parsed, rec.context);
  ASSERT_EQ(direct.size(), via_spef.size());
  for (std::size_t q = 0; q < direct.size(); ++q)
    EXPECT_NEAR(direct[q].delay, via_spef[q].delay, 1e-13 + 1e-4 * std::abs(direct[q].delay));
}

// The estimator is inductive: trained on one family of designs, it transfers
// to nets generated with a different seed and different non-tree mix.
TEST(EndToEnd, InductiveAcrossGenerationSettings) {
  const auto train = dataset(120, 109, 0.3);
  const auto test = dataset(30, 991, 0.7);
  const auto est = core::WireTimingEstimator::train(
      train, options(nn::ModelKind::kGnnTrans, 25));
  const core::Evaluation eval = est.evaluate(test);
  EXPECT_GT(eval.delay_r2, 0.8);
}

// Runtime claim: inference must be far cheaper than golden simulation.
TEST(EndToEnd, InferenceFasterThanGoldenTiming) {
  const auto recs = dataset(60, 113);
  const auto est =
      core::WireTimingEstimator::train(recs, options(nn::ModelKind::kGnnTrans, 5));

  sim::GoldenTimer timer{sim::TransientConfig{}};
  // Both loops count the sinks they time, so neither result is discarded.
  std::size_t golden_sinks = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& rec : recs)
    golden_sinks += timer.time_net(rec.net, rec.context.input_slew,
                                   rec.context.driver_resistance)
                        .sinks.size();
  const double golden_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::size_t estimated_sinks = 0;
  const auto t1 = std::chrono::steady_clock::now();
  for (const auto& rec : recs)
    estimated_sinks += est.estimate(rec.net, rec.context).size();
  const double inference_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  EXPECT_LT(inference_s, golden_s);
  EXPECT_EQ(estimated_sinks, golden_sinks);
}

// Arrival-time composition (Table V mechanics): STA with golden wire timing
// equals itself, and the estimator's arrivals track it.
TEST(EndToEnd, ArrivalTimesTrackGoldenAcrossUnseenDesign) {
  const auto lib = cell::CellLibrary::make_default();

  // Train on nets pooled from several designs (the paper's protocol)...
  netlist::DesignGenConfig train_cfg;
  train_cfg.startpoints = 6;
  train_cfg.levels = 4;
  train_cfg.cells_per_level = 10;
  sim::TransientConfig tc;
  tc.steps = 400;
  sim::GoldenTimer timer(tc);
  std::vector<features::WireRecord> train_recs;
  for (std::uint64_t seed : {201u, 205u, 209u, 213u}) {
    train_cfg.seed = seed;
    const auto d = netlist::generate_design(train_cfg, lib, "train");
    // Contexts carry the true propagated slews from a golden STA pass so the
    // estimator trains on the distribution it later sees inside STA.
    netlist::GoldenWireSource gold(tc);
    const auto sta = netlist::run_sta(d, lib, gold);
    auto recs = features::records_from_design(d, lib, timer, &sta.slew);
    std::move(recs.begin(), recs.end(), std::back_inserter(train_recs));
  }
  const auto est = core::WireTimingEstimator::train(
      train_recs, options(nn::ModelKind::kGnnTrans, 25));

  // ...evaluate arrivals on a different, unseen design.
  netlist::DesignGenConfig test_cfg = train_cfg;
  test_cfg.seed = 202;
  const auto test_design = netlist::generate_design(test_cfg, lib, "test");

  netlist::GoldenWireSource golden(tc);
  const auto ref = netlist::run_sta(test_design, lib, golden);
  core::EstimatorWireSource source(est, test_design, lib);
  const auto pred = netlist::run_sta(test_design, lib, source);

  const double r2 = core::r2_score(pred.endpoint_arrival, ref.endpoint_arrival);
  EXPECT_GT(r2, 0.8);
  // And the estimator pass must be faster on the wire side.
  EXPECT_LT(pred.wire_seconds, ref.wire_seconds);
}

}  // namespace
