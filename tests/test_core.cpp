// Tests for metrics, the training loop, and the WireTimingEstimator API.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::core;

TEST(Metrics, R2PerfectPredictionIsOne) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2_score(y, y), 1.0);
}

TEST(Metrics, R2MeanPredictorIsZero) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  const std::vector<double> mean_pred{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(mean_pred, truth), 0.0);
}

TEST(Metrics, R2WorseThanMeanIsNegative) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  const std::vector<double> bad{3.0, 2.0, 1.0};
  EXPECT_LT(r2_score(bad, truth), 0.0);
}

TEST(Metrics, R2ConstantTruthHandledGracefully) {
  const std::vector<double> truth{2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> off{2.5, 2.5};
  EXPECT_DOUBLE_EQ(r2_score(off, truth), 0.0);
}

TEST(Metrics, MaxAndMeanAbsErrors) {
  const std::vector<double> pred{1.0, 5.0, 2.0};
  const std::vector<double> truth{1.5, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(max_abs_error(pred, truth), 1.0);
  EXPECT_DOUBLE_EQ(mean_abs_error(pred, truth), 0.5);
}

// ---- Trainer ----

std::vector<features::WireRecord> records(std::size_t n, std::uint64_t seed) {
  const auto lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig cfg;
  cfg.net_count = n;
  cfg.seed = seed;
  cfg.sim_config.steps = 300;
  return features::generate_wire_records(cfg, lib);
}

nn::ModelConfig tiny_model() {
  nn::ModelConfig c;
  c.hidden_dim = 8;
  c.gnn_layers = 2;
  c.transformer_layers = 1;
  c.heads = 2;
  c.mlp_hidden = 16;
  return c;
}

TEST(Trainer, LossDecreasesOverEpochs) {
  const auto recs = records(40, 41);
  features::Standardizer std_;
  std_.fit(recs);
  const auto samples = features::make_samples(recs, std_);

  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);

  TrainConfig tc;
  tc.epochs = 12;
  const TrainReport report = train_model(*model, samples, tc);
  ASSERT_EQ(report.epoch_loss.size(), 12u);
  EXPECT_LT(report.epoch_loss.back(), 0.5 * report.epoch_loss.front());
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(Trainer, EpochCallbackFires) {
  const auto recs = records(6, 43);
  features::Standardizer std_;
  std_.fit(recs);
  const auto samples = features::make_samples(recs, std_);
  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGraphSage, mc);
  TrainConfig tc;
  tc.epochs = 3;
  std::size_t calls = 0;
  tc.on_epoch = [&](std::size_t, double) { ++calls; };
  train_model(*model, samples, tc);
  EXPECT_EQ(calls, 3u);
}

TEST(Trainer, ValidationLossIsTrackedWhenEnabled) {
  const auto recs = records(30, 44);
  features::Standardizer std_;
  std_.fit(recs);
  const auto samples = features::make_samples(recs, std_);
  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  TrainConfig tc;
  tc.epochs = 6;
  tc.validation_fraction = 0.25;
  const TrainReport report = train_model(*model, samples, tc);
  EXPECT_EQ(report.validation_loss.size(), report.epoch_loss.size());
  EXPECT_FALSE(report.validation_loss.empty());
  // Validation loss should improve over a short healthy run.
  EXPECT_LT(report.validation_loss.back(), report.validation_loss.front());
}

TEST(Trainer, EarlyStoppingHaltsOnPlateau) {
  const auto recs = records(12, 45);
  features::Standardizer std_;
  std_.fit(recs);
  const auto samples = features::make_samples(recs, std_);
  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  TrainConfig tc;
  tc.epochs = 200;
  tc.learning_rate = 0.0f;  // frozen model: validation can never improve
  tc.validation_fraction = 0.25;
  tc.early_stop_patience = 3;
  const TrainReport report = train_model(*model, samples, tc);
  EXPECT_TRUE(report.stopped_early);
  EXPECT_LT(report.epoch_loss.size(), 10u);
}

TEST(Trainer, EmptySampleListIsNoop) {
  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  const TrainReport report = train_model(*model, {}, TrainConfig{});
  EXPECT_TRUE(report.epoch_loss.empty());
}

TEST(Trainer, DiscardsCompiledInferencePlan) {
  const auto recs = records(4, 46);
  features::Standardizer std_;
  std_.fit(recs);
  const auto samples = features::make_samples(recs, std_);
  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  TrainConfig tc;
  tc.epochs = 1;

  // The plan copies the weights, so a plan compiled before training would
  // serve the old ones: the trainer must drop it.
  model->compile_inference();
  ASSERT_TRUE(model->has_inference_plan());
  train_model(*model, samples, tc);
  EXPECT_FALSE(model->has_inference_plan());
}

TEST(Trainer, NanLabelThrowsBeforeTheAdamStep) {
  const auto recs = records(6, 47);
  features::Standardizer std_;
  std_.fit(recs);
  auto samples = features::make_samples(recs, std_);
  ASSERT_GE(samples.size(), 4u);
  const std::size_t poisoned = 2;
  samples[poisoned].delay_label.values()[0] = std::numeric_limits<float>::quiet_NaN();
  nn::ModelConfig mc = tiny_model();
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  TrainConfig tc;
  tc.epochs = 2;
  try {
    train_model(*model, samples, tc);
    FAIL() << "expected a non-finite gradient error";
  } catch (const NonFiniteGradientError& e) {
    EXPECT_EQ(e.epoch(), 0u);
    EXPECT_EQ(e.sample(), poisoned);
    EXPECT_NE(std::string(e.what()).find(samples[poisoned].net_name), std::string::npos)
        << e.what();
  }
  // The steps before it ran, and none wrote the NaN into a weight.
  for (const tensor::Tensor& p : model->parameters())
    for (const float v : p.values()) ASSERT_TRUE(std::isfinite(v));
}

// ---- WireTimingEstimator ----

WireTimingEstimator::Options quick_options() {
  WireTimingEstimator::Options opt;
  opt.model = tiny_model();
  opt.train.epochs = 15;
  return opt;
}

TEST(Estimator, TrainEvaluatePredictRoundTrip) {
  const auto recs = records(60, 47);
  const std::vector<features::WireRecord> train_set(recs.begin(), recs.begin() + 48);
  const std::vector<features::WireRecord> test_set(recs.begin() + 48, recs.end());

  const auto est = WireTimingEstimator::train(train_set, quick_options());
  const Evaluation on_train = est.evaluate(train_set);
  EXPECT_GT(on_train.delay_r2, 0.8);
  const Evaluation on_test = est.evaluate(test_set);
  EXPECT_GT(on_test.delay_r2, 0.5);  // small data; just sanity

  const auto estimates = est.estimate(test_set[0].net, test_set[0].context);
  ASSERT_EQ(estimates.size(), test_set[0].net.sinks.size());
  for (const PathEstimate& pe : estimates) {
    EXPECT_GT(pe.delay, -1e-11);
    EXPECT_GT(pe.slew, 0.0);
  }
}

TEST(Estimator, TrainRejectsEmptyRecords) {
  EXPECT_THROW(WireTimingEstimator::train({}, quick_options()),
               std::invalid_argument);
}

TEST(Estimator, SaveLoadPreservesPredictions) {
  const auto recs = records(30, 53);
  const auto est = WireTimingEstimator::train(recs, quick_options());

  std::stringstream buf;
  est.save(buf);
  const auto loaded = WireTimingEstimator::load(buf);

  const auto a = est.estimate(recs[0].net, recs[0].context);
  const auto b = loaded.estimate(recs[0].net, recs[0].context);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_DOUBLE_EQ(a[q].delay, b[q].delay);
    EXPECT_DOUBLE_EQ(a[q].slew, b[q].slew);
  }
}

TEST(Estimator, FileRoundTripAndMissingFileError) {
  const auto recs = records(12, 59);
  const auto est = WireTimingEstimator::train(recs, quick_options());
  const std::string path = std::filesystem::temp_directory_path() /
                           "gnntrans_estimator_test.bin";
  est.save_file(path);
  const auto loaded = WireTimingEstimator::load_file(path);
  EXPECT_EQ(loaded.model().kind(), nn::ModelKind::kGnnTrans);
  std::remove(path.c_str());
  EXPECT_THROW(WireTimingEstimator::load_file(path), std::runtime_error);
}

TEST(Estimator, WorksForEveryModelKind) {
  const auto recs = records(20, 61);
  for (nn::ModelKind kind :
       {nn::ModelKind::kGraphSage, nn::ModelKind::kGcnii, nn::ModelKind::kGat,
        nn::ModelKind::kGraphTransformer}) {
    WireTimingEstimator::Options opt = quick_options();
    opt.kind = kind;
    opt.train.epochs = 3;
    const auto est = WireTimingEstimator::train(recs, opt);
    const auto pred = est.estimate(recs[0].net, recs[0].context);
    EXPECT_EQ(pred.size(), recs[0].net.sinks.size());
  }
}

// ---- STA integration ----

TEST(EstimatorWireSourceTest, DrivesStaEndToEnd) {
  const auto lib = cell::CellLibrary::make_default();
  netlist::DesignGenConfig dcfg;
  dcfg.startpoints = 4;
  dcfg.levels = 3;
  dcfg.cells_per_level = 6;
  dcfg.seed = 67;
  const netlist::Design design = netlist::generate_design(dcfg, lib, "d");

  sim::TransientConfig tc;
  tc.steps = 300;
  sim::GoldenTimer timer(tc);
  const auto recs = features::records_from_design(design, lib, timer);
  const auto est = WireTimingEstimator::train(recs, quick_options());

  EstimatorWireSource source(est, design, lib);
  const netlist::StaResult predicted = netlist::run_sta(design, lib, source);
  netlist::GoldenWireSource golden(tc);
  const netlist::StaResult reference = netlist::run_sta(design, lib, golden);

  ASSERT_EQ(predicted.endpoint_arrival.size(), reference.endpoint_arrival.size());
  // Trained on this very design: endpoint arrivals must track closely.
  const double r2 =
      r2_score(predicted.endpoint_arrival, reference.endpoint_arrival);
  EXPECT_GT(r2, 0.9);
}

}  // namespace
