// Tests for the model zoo: shapes, determinism, ablation wiring, save/load.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "cell/library.hpp"
#include "features/dataset.hpp"
#include "nn/guard.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/plan.hpp"
#include "rcnet/generate.hpp"

#include "differential_nets.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::nn;

/// Builds a synthetic 5-node / 2-path sample with both operators populated.
GraphSample toy_sample(std::uint64_t seed = 1, std::size_t dx = 12,
                       std::size_t dh = 8) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  const std::size_t n = 5, p = 2;

  GraphSample s;
  s.net_name = "toy";
  s.node_count = n;
  s.path_count = p;
  std::vector<float> x(n * dx), h(p * dh);
  for (float& v : x) v = dist(rng);
  for (float& v : h) v = dist(rng);
  s.x = tensor::Tensor::from_data(std::move(x), n, dx);
  s.h = tensor::Tensor::from_data(std::move(h), p, dh);

  // Chain topology 0-1-2-3-4, entries grouped by row as make_sample builds them.
  s.weighted_adj = tensor::GraphMatrix(n, n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v > 0) s.weighted_adj.add(v, v - 1, 0.5f);
    if (v + 1 < n) s.weighted_adj.add(v, v + 1, 0.5f);
  }
  s.path_pool = tensor::GraphMatrix(p, n);
  s.path_pool.add(0, 0, 0.5f);
  s.path_pool.add(0, 1, 0.5f);
  s.path_pool.add(1, 2, 1.0f / 3);
  s.path_pool.add(1, 3, 1.0f / 3);
  s.path_pool.add(1, 4, 1.0f / 3);

  s.slew_label = tensor::Tensor::from_data({0.1f, -0.2f}, p, 1);
  s.delay_label = tensor::Tensor::from_data({0.3f, 0.4f}, p, 1);
  s.slew_seconds = {1e-11, 2e-11};
  s.delay_seconds = {3e-11, 4e-11};
  return s;
}

ModelConfig small_config() {
  ModelConfig c;
  c.node_feature_dim = 12;
  c.path_feature_dim = 8;
  c.hidden_dim = 8;
  c.gnn_layers = 2;
  c.transformer_layers = 1;
  c.heads = 2;
  c.mlp_hidden = 8;
  c.seed = 42;
  return c;
}

const ModelKind kAllKinds[] = {ModelKind::kGnnTrans, ModelKind::kGraphSage,
                               ModelKind::kGcnii, ModelKind::kGat,
                               ModelKind::kGraphTransformer};

class EveryModel : public ::testing::TestWithParam<ModelKind> {};

TEST_P(EveryModel, ForwardProducesPerPathOutputs) {
  const auto model = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction pred = model->forward(s);
  EXPECT_EQ(pred.slew.rows(), s.path_count);
  EXPECT_EQ(pred.slew.cols(), 1u);
  EXPECT_EQ(pred.delay.rows(), s.path_count);
  for (std::size_t q = 0; q < s.path_count; ++q) {
    EXPECT_TRUE(std::isfinite(pred.slew(q, 0)));
    EXPECT_TRUE(std::isfinite(pred.delay(q, 0)));
  }
}

TEST_P(EveryModel, DeterministicForSameSeed) {
  const auto a = make_model(GetParam(), small_config());
  const auto b = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction pa = a->forward(s);
  const WirePrediction pb = b->forward(s);
  for (std::size_t q = 0; q < s.path_count; ++q) {
    EXPECT_FLOAT_EQ(pa.slew(q, 0), pb.slew(q, 0));
    EXPECT_FLOAT_EQ(pa.delay(q, 0), pb.delay(q, 0));
  }
}

TEST_P(EveryModel, DifferentSeedsGiveDifferentWeights) {
  ModelConfig c2 = small_config();
  c2.seed = 1234;
  const auto a = make_model(GetParam(), small_config());
  const auto b = make_model(GetParam(), c2);
  const GraphSample s = toy_sample();
  EXPECT_NE(a->forward(s).delay(0, 0), b->forward(s).delay(0, 0));
}

TEST_P(EveryModel, ParametersAreNonEmptyAndTrainable) {
  const auto model = make_model(GetParam(), small_config());
  const auto params = model->parameters();
  EXPECT_FALSE(params.empty());
  for (const auto& p : params) EXPECT_TRUE(p.requires_grad());
  EXPECT_GT(model->parameter_count(), 100u);
}

TEST_P(EveryModel, GradientsReachAllParameters) {
  const auto model = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction pred = model->forward(s);
  tensor::Tensor loss = tensor::add(tensor::mse_loss(pred.slew, s.slew_label),
                                    tensor::mse_loss(pred.delay, s.delay_label));
  loss.backward();
  std::size_t touched = 0;
  for (const auto& p : model->parameters())
    if (!p.grad().empty()) ++touched;
  // Every parameter must be on the tape (grad allocated by backward).
  EXPECT_EQ(touched, model->parameters().size());
}

TEST_P(EveryModel, SaveLoadRoundTripPreservesForward) {
  const auto model = make_model(GetParam(), small_config());
  const GraphSample s = toy_sample();
  const WirePrediction before = model->forward(s);

  std::stringstream buf;
  save_model(buf, *model);
  const auto loaded = load_model(buf);
  EXPECT_EQ(loaded->kind(), GetParam());
  const WirePrediction after = loaded->forward(s);
  for (std::size_t q = 0; q < s.path_count; ++q) {
    EXPECT_FLOAT_EQ(before.slew(q, 0), after.slew(q, 0));
    EXPECT_FLOAT_EQ(before.delay(q, 0), after.delay(q, 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EveryModel, ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) { return to_string(info.param); });

TEST(ModelFactory, NamesAreCanonical) {
  EXPECT_EQ(to_string(ModelKind::kGnnTrans), "GNNTrans");
  EXPECT_EQ(to_string(ModelKind::kGcnii), "GCNII");
}

TEST(ModelFactory, RejectsMissingDims) {
  ModelConfig c;  // node_feature_dim == 0
  EXPECT_THROW(make_model(ModelKind::kGraphSage, c), std::invalid_argument);
  ModelConfig c2 = small_config();
  c2.path_feature_dim = 0;
  EXPECT_THROW(make_model(ModelKind::kGnnTrans, c2), std::invalid_argument);
}

TEST(GnnTransAblations, PathFeatureFlagChangesInputDim) {
  ModelConfig with = small_config();
  ModelConfig without = small_config();
  without.use_path_features = false;
  const auto a = make_model(ModelKind::kGnnTrans, with);
  const auto b = make_model(ModelKind::kGnnTrans, without);
  // Dropping the concat shrinks the head input, hence the parameter count.
  EXPECT_GT(a->parameter_count(), b->parameter_count());
  // Both still run.
  const GraphSample s = toy_sample();
  (void)b->forward(s);
}

TEST(GraphOperators, GcniiRejectsEntriesNotGroupedByRow) {
  tensor::GraphMatrix adj(2, 2);
  adj.add(1, 0, 1.0f);
  adj.add(0, 1, 1.0f);
  EXPECT_THROW((void)gcnii_adjacency(adj), std::invalid_argument);
}

TEST(GnnTransAblations, EdgeWeightFlagSwitchesAggregator) {
  GraphSample s = toy_sample();
  // Make the two aggregation matrices radically different so the switch shows:
  // unequal weights on one row, where the mean weighs both edges 1/2.
  s.weighted_adj = tensor::GraphMatrix(s.node_count, s.node_count);
  s.weighted_adj.add(0, 3, 0.9f);  // long-range fake edges
  s.weighted_adj.add(0, 4, 0.1f);
  ModelConfig weighted = small_config();
  ModelConfig mean = small_config();
  mean.use_edge_weights = false;
  const auto a = make_model(ModelKind::kGnnTrans, weighted);
  const auto b = make_model(ModelKind::kGnnTrans, mean);
  // Identical seeds: any output difference comes from the aggregator choice.
  EXPECT_NE(a->forward(s).delay(0, 0), b->forward(s).delay(0, 0));
}

TEST(GnnTransAblations, GlobalVsMaskedAttentionDiffer) {
  ModelConfig global = small_config();
  ModelConfig masked = small_config();
  masked.global_attention = false;
  const auto a = make_model(ModelKind::kGnnTrans, global);
  const auto b = make_model(ModelKind::kGnnTrans, masked);
  const GraphSample s = toy_sample();
  EXPECT_NE(a->forward(s).delay(0, 0), b->forward(s).delay(0, 0));
}

TEST(GnnTransAblations, CascadeFlagChangesDelayHeadInput) {
  ModelConfig cascade = small_config();
  ModelConfig independent = small_config();
  independent.cascade_delay_head = false;
  const auto a = make_model(ModelKind::kGnnTrans, cascade);
  const auto b = make_model(ModelKind::kGnnTrans, independent);
  EXPECT_GT(a->parameter_count(), b->parameter_count());
}

TEST(SelfAttention, RejectsIndivisibleHeads) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(SelfAttentionLayer(7, 2, rng), std::invalid_argument);
}

TEST(Layers, MlpRejectsTooFewDims) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
}

TEST(Layers, LayerCountsScaleParameterCount) {
  ModelConfig shallow = small_config();
  ModelConfig deep = small_config();
  deep.gnn_layers = 6;
  deep.transformer_layers = 3;
  const auto a = make_model(ModelKind::kGnnTrans, shallow);
  const auto b = make_model(ModelKind::kGnnTrans, deep);
  EXPECT_GT(b->parameter_count(), a->parameter_count());
}

// ---- Compiled inference plan vs the autograd forward pass ----

/// Unlabelled samples of rcgen nets drawn from \p cfg, standardized with
/// \p standardizer (fitted here when not yet fitted). Labels stay zero: the
/// comparison needs only the forward pass, not golden timing.
std::vector<GraphSample> rcgen_samples(const rcnet::NetGenConfig& cfg,
                                       std::size_t count, std::uint64_t seed,
                                       features::Standardizer& standardizer) {
  static const cell::CellLibrary library = cell::CellLibrary::make_default();
  std::mt19937_64 rng(seed);
  std::vector<features::WireRecord> records;
  while (records.size() < count) {
    features::WireRecord rec;
    rec.net = rcnet::generate_net(cfg, rng, "plan" + std::to_string(records.size()));
    if (!rec.net.validate().empty()) continue;
    rec.context = features::random_context(library, rec.net, rng);
    rec.raw = features::extract_features(rec.net, rec.context);
    rec.non_tree = !rec.net.is_tree();
    rec.slew_labels.assign(rec.raw.analysis.paths.size(), 0.0);
    rec.delay_labels.assign(rec.raw.analysis.paths.size(), 0.0);
    records.push_back(std::move(rec));
  }
  if (!standardizer.fitted()) standardizer.fit(records);
  return features::make_samples(records, standardizer);
}

/// The paper-scaled served config: 4 Sage + 2 attention layers, 4 heads.
ModelConfig served_config() {
  ModelConfig c;
  c.node_feature_dim = features::kNodeFeatureCount;
  c.path_feature_dim = features::kPathFeatureCount;
  c.hidden_dim = 16;
  c.gnn_layers = 4;
  c.transformer_layers = 2;
  c.heads = 4;
  c.mlp_hidden = 32;
  c.seed = 5;
  return c;
}

/// The population the differential test covers, one rcgen config per case.
std::vector<GraphSample> differential_population() {
  features::Standardizer standardizer;
  std::vector<GraphSample> out =
      rcgen_samples(rcnet::NetGenConfig{}, 24, 11, standardizer);
  const auto add = [&](rcnet::NetGenConfig cfg, std::size_t count,
                       std::uint64_t seed) {
    for (GraphSample& s : rcgen_samples(cfg, count, seed, standardizer))
      out.push_back(std::move(s));
  };
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = cfg.max_nodes = 2;  // smallest net: one sink, N = 2
  add(cfg, 3, 12);
  cfg.min_nodes = cfg.max_nodes = 3;
  add(cfg, 3, 13);
  cfg.min_nodes = 5;  // N = 5, 6, 7, 9, 10, 11: not multiples of 4
  cfg.max_nodes = 11;
  add(cfg, 8, 14);
  cfg = rcnet::NetGenConfig{};
  cfg.max_sinks = 1;  // P = 1
  add(cfg, 6, 15);
  cfg = rcnet::NetGenConfig{};
  cfg.non_tree_fraction = 1.0;
  add(cfg, 6, 16);
  cfg = rcnet::NetGenConfig{};
  cfg.min_nodes = 160;
  cfg.max_nodes = 320;
  add(cfg, 3, 17);
  return out;
}

WirePrediction plan_forward(const WireModel& model, const GraphSample& s,
                            Workspace& ws) {
  const tensor::NoGradGuard no_grad;
  return model.forward(s, &ws);
}

TEST(GnnTransPlan, MatchesAutogradForward) {
  // Tolerance: |plan - autograd| <= 1e-4 * (1 + |autograd|) in standardized
  // units; the worst case over this population measured 4e-6. The dense
  // products are bitwise those of autograd; only the softmax's polynomial
  // exp and folded reciprocal differ from libm expf and per-element
  // division, by a few float ulps per attention weight.
  constexpr double kTol = 1e-4;
  const std::vector<GraphSample> samples = differential_population();
  bool saw_p1 = false, saw_non_tree = false, saw_large = false, saw_two = false;
  for (const GraphSample& s : samples) {
    saw_two |= s.node_count == 2;
    saw_p1 |= s.path_count == 1;
    saw_non_tree |= s.non_tree;
    saw_large |= s.node_count >= 160;
  }
  ASSERT_TRUE(saw_two && saw_p1 && saw_non_tree && saw_large);

  ModelConfig base = served_config();
  std::vector<ModelConfig> configs(4, base);
  configs[1].use_edge_weights = false;
  configs[2].use_path_features = false;
  configs[3].cascade_delay_head = false;
  for (const ModelConfig& config : configs) {
    const auto model = make_model(ModelKind::kGnnTrans, config);
    std::vector<WirePrediction> reference;
    {
      const tensor::NoGradGuard no_grad;  // no plan yet: autograd serves
      for (const GraphSample& s : samples) reference.push_back(model->forward(s));
    }
    model->compile_inference();
    ASSERT_TRUE(model->has_inference_plan());
    Workspace ws;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const WirePrediction got = plan_forward(*model, samples[i], ws);
      ASSERT_EQ(got.slew.rows(), samples[i].path_count);
      ASSERT_EQ(got.delay.rows(), samples[i].path_count);
      for (std::size_t q = 0; q < samples[i].path_count; ++q) {
        for (const auto& [a, b] :
             {std::pair{got.slew(q, 0), reference[i].slew(q, 0)},
              std::pair{got.delay(q, 0), reference[i].delay(q, 0)}}) {
          const double err =
              std::abs(double{a} - double{b}) / (1.0 + std::abs(double{b}));
          EXPECT_LE(err, kTol) << "net " << samples[i].net_name << " ("
                               << samples[i].node_count << " nodes) path " << q;
        }
      }
    }
  }
}

TEST(GnnTransPlan, SlabHistoryDoesNotChangeBits) {
  features::Standardizer standardizer;
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = 160;
  cfg.max_nodes = 200;
  const std::vector<GraphSample> large = rcgen_samples(cfg, 1, 21, standardizer);
  cfg.min_nodes = 5;
  cfg.max_nodes = 30;
  const std::vector<GraphSample> small = rcgen_samples(cfg, 4, 22, standardizer);

  const auto model = make_model(ModelKind::kGnnTrans, served_config());
  model->compile_inference();
  Workspace used;
  (void)plan_forward(*model, large.front(), used);  // grows the slab
  const std::size_t grown = used.stats().peak_bytes;
  for (const GraphSample& s : small) {
    Workspace fresh;
    const WirePrediction a = plan_forward(*model, s, used);
    const WirePrediction b = plan_forward(*model, s, fresh);
    EXPECT_LT(fresh.stats().peak_bytes, grown);
    for (std::size_t q = 0; q < s.path_count; ++q) {
      EXPECT_EQ(a.slew(q, 0), b.slew(q, 0)) << s.net_name;
      EXPECT_EQ(a.delay(q, 0), b.delay(q, 0)) << s.net_name;
    }
  }
  EXPECT_EQ(used.stats().grown, 1u);
  EXPECT_EQ(used.stats().reused, small.size());
  EXPECT_EQ(used.stats().peak_bytes, grown);
}

/// Widths the attention kernel can be forced to on this CPU; 4 is SSE2.
std::vector<std::size_t> runnable_lanes() {
  std::vector<std::size_t> lanes;
  for (const std::size_t l : {4u, 8u, 16u})
    if (l <= GnnTransPlan::widest_lanes()) lanes.push_back(l);
  return lanes;
}

/// \p s with node \p node's features all set to \p value.
GraphSample with_node_features(const GraphSample& s, std::size_t node,
                               float value) {
  GraphSample out = s;
  std::vector<float> x(s.x.values().begin(), s.x.values().end());
  std::fill_n(x.begin() + node * s.x.cols(), s.x.cols(), value);
  out.x = tensor::Tensor::from_data(std::move(x), s.x.rows(), s.x.cols());
  return out;
}

TEST(GnnTransPlan, EveryWidthMatchesSse2Bitwise) {
  const std::vector<GraphSample> samples = differential_population();
  const std::vector<std::size_t> lanes = runnable_lanes();
  // (hidden, heads, MLP hidden): dk = 4 at four, two and three heads (three
  // fill a two-head and a one-head group), dk = 8, dk = 1 at eight heads
  // (two or more groups) and dk = 16 at one head. MLP hidden 20 gives the
  // heads' products column tails at every width: 16 + 4, 8 + 8 + 4.
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {16, 4, 32}, {8, 2, 32}, {12, 3, 32}, {16, 2, 32},
      {8, 8, 32},  {16, 1, 32}, {16, 4, 20}};
  for (const auto& [hidden, heads, mlp_hidden] : shapes) {
    SCOPED_TRACE("MLP hidden " + std::to_string(mlp_hidden));
    ModelConfig config = served_config();
    config.hidden_dim = hidden;
    config.heads = heads;
    config.mlp_hidden = mlp_hidden;
    const auto model = make_model(ModelKind::kGnnTrans, config);
    const auto sse2 = GnnTransPlan::compile(*model, 4);
    ASSERT_NE(sse2, nullptr);
    EXPECT_EQ(sse2->lanes(), 4u);
    Workspace ws;
    std::vector<WirePrediction> reference;
    for (const GraphSample& s : samples)
      reference.push_back(sse2->run(s, ws));
    for (const std::size_t l : lanes) {
      const auto plan = GnnTransPlan::compile(*model, l);
      ASSERT_EQ(plan->lanes(), l);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const WirePrediction got = plan->run(samples[i], ws);
        for (std::size_t q = 0; q < samples[i].path_count; ++q) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got.slew(q, 0)),
                    std::bit_cast<std::uint32_t>(reference[i].slew(q, 0)))
              << l << " lanes, " << hidden << "/" << heads << ", net "
              << samples[i].net_name << " path " << q;
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got.delay(q, 0)),
                    std::bit_cast<std::uint32_t>(reference[i].delay(q, 0)))
              << l << " lanes, " << hidden << "/" << heads << ", net "
              << samples[i].net_name << " path " << q;
        }
      }
    }
  }

  // Non-finite values at every width. A NaN feature is refused at the input
  // guard, before any kernel runs. Huge finite features pass the Sage layers
  // but overflow the scores; the softmax turns inf - inf into NaN inside the
  // attention kernel, and the "attention" guard must see it.
  const auto model = make_model(ModelKind::kGnnTrans, served_config());
  const GraphSample& large = samples.back();
  ASSERT_GE(large.node_count, 160u);
  const GraphSample nan_input =
      with_node_features(large, 7, std::numeric_limits<float>::quiet_NaN());
  const GraphSample overflow = with_node_features(large, 7, 1e20f);
  for (const std::size_t l : lanes) {
    const auto plan = GnnTransPlan::compile(*model, l);
    Workspace ws;
    for (const auto& [sample, stage] : {std::pair{&nan_input, "input"},
                                        std::pair{&overflow, "attention"}}) {
      try {
        (void)plan->run(*sample, ws);
        ADD_FAILURE() << l << " lanes: expected a non-finite " << stage;
      } catch (const NonFiniteActivationError& e) {
        EXPECT_EQ(e.stage(), stage) << l << " lanes";
      }
    }
  }
  if (lanes.back() < 16)
    GTEST_SKIP() << "this CPU runs only " << lanes.back()
                 << "-lane attention; wider widths untested";
}

TEST(GnnTransPlan, NoAttentionMatchesAutogradBitwise) {
  // Without attention layers every kernel the plan runs sums in autograd's
  // order: the aggregation and the path pooling in entry order, each dense
  // product over ascending inputs from zero with the same fused store. So
  // slew and delay equal autograd's bitwise at every width.
  const std::vector<GraphSample> samples = differential_population();
  ModelConfig base = served_config();
  base.transformer_layers = 0;
  std::vector<ModelConfig> configs(4, base);
  configs[1].use_edge_weights = false;
  configs[2].use_path_features = false;
  configs[3].cascade_delay_head = false;
  for (std::size_t variant = 0; variant < configs.size(); ++variant) {
    const auto model = make_model(ModelKind::kGnnTrans, configs[variant]);
    std::vector<WirePrediction> reference;
    {
      const tensor::NoGradGuard no_grad;  // no plan yet: autograd serves
      for (const GraphSample& s : samples) reference.push_back(model->forward(s));
    }
    for (const std::size_t l : runnable_lanes()) {
      const auto plan = GnnTransPlan::compile(*model, l);
      ASSERT_NE(plan, nullptr);
      Workspace ws;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const WirePrediction got = plan->run(samples[i], ws);
        ASSERT_EQ(got.slew.rows(), samples[i].path_count);
        for (std::size_t q = 0; q < samples[i].path_count; ++q) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got.slew(q, 0)),
                    std::bit_cast<std::uint32_t>(reference[i].slew(q, 0)))
              << l << " lanes, config " << variant << ", net "
              << samples[i].net_name << " path " << q;
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got.delay(q, 0)),
                    std::bit_cast<std::uint32_t>(reference[i].delay(q, 0)))
              << l << " lanes, config " << variant << ", net "
              << samples[i].net_name << " path " << q;
        }
      }
    }
  }
}

/// \p s with one more path whose pooling row covers every node, so the plan's
/// last attention layer must serve every row.
GraphSample with_every_node_pooled(const GraphSample& s) {
  GraphSample out = s;
  const std::size_t n = s.x.rows(), p = s.path_pool.rows;
  out.path_pool.rows = p + 1;
  for (std::uint32_t j = 0; j < n; ++j)
    out.path_pool.add(static_cast<std::uint32_t>(p), j, 1.0f / n);
  std::vector<float> h(s.h.values().begin(), s.h.values().end());
  h.resize(h.size() + s.h.cols(), 0.5f);
  out.h = tensor::Tensor::from_data(std::move(h), p + 1, s.h.cols());
  out.path_count = p + 1;
  return out;
}

TEST(GnnTransPlan, LiveRowsMatchEveryRowBitwise) {
  const std::vector<GraphSample> samples = differential_population();
  std::vector<GraphSample> wide;
  for (const GraphSample& s : samples)
    wide.push_back(with_every_node_pooled(s));
  // The (hidden, heads) shapes of EveryWidthMatchesSse2Bitwise.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {16, 4}, {8, 2}, {12, 3}, {16, 2}, {8, 8}, {16, 1}};
  for (const std::size_t layers : {1u, 3u}) {
    for (const auto& [hidden, heads] : shapes) {
      ModelConfig config = served_config();
      config.hidden_dim = hidden;
      config.heads = heads;
      config.transformer_layers = layers;
      const auto model = make_model(ModelKind::kGnnTrans, config);
      for (const std::size_t l : runnable_lanes()) {
        const auto plan = GnnTransPlan::compile(*model, l);
        Workspace ws;
        for (std::size_t i = 0; i < samples.size(); ++i) {
          const WirePrediction live = plan->run(samples[i], ws);
          const WirePrediction every = plan->run(wide[i], ws);
          ASSERT_EQ(every.slew.rows(), samples[i].path_count + 1);
          for (std::size_t q = 0; q < samples[i].path_count; ++q) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(live.slew(q, 0)),
                      std::bit_cast<std::uint32_t>(every.slew(q, 0)))
                << l << " lanes, " << hidden << "/" << heads << ", " << layers
                << " layers, net " << samples[i].net_name << " path " << q;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(live.delay(q, 0)),
                      std::bit_cast<std::uint32_t>(every.delay(q, 0)))
                << l << " lanes, " << hidden << "/" << heads << ", " << layers
                << " layers, net " << samples[i].net_name << " path " << q;
          }
        }
      }
    }
  }
}

TEST(GnnTransPlan, HeadsFromStoredEmbeddingMatchFullPassBitwise) {
  // Every differential_nets net under five random contexts, at every width:
  // run() under the first context stores the pooled embedding and the net's
  // own raw path columns; under each context, run_heads() from them, with h
  // rebuilt by path_features() and standardize_path_features(), must give
  // the full pass's slew and delay bit for bit. The ablations change what
  // the heads read: no path features, and no slew column for the delay head.
  static const cell::CellLibrary library = cell::CellLibrary::make_default();
  features::Standardizer standardizer;
  (void)rcgen_samples(rcnet::NetGenConfig{}, 24, 11, standardizer);
  std::vector<ModelConfig> configs(3, served_config());
  configs[1].use_path_features = false;
  configs[2].cascade_delay_head = false;
  constexpr int kContexts = 5;
  std::size_t compared = 0;
  for (const ModelConfig& config : configs) {
    const auto model = make_model(ModelKind::kGnnTrans, config);
    for (const std::size_t l : runnable_lanes()) {
      const auto plan = GnnTransPlan::compile(*model, l);
      Workspace ws;
      std::mt19937_64 rng(31);  // the same nets and contexts at every width
      for (const differential_nets::NetSet& set : differential_nets::sets()) {
        for (int i = 0; i < set.nets; ++i) {
          const rcnet::RcNet net = rcnet::generate_net(set.cfg, rng, set.name);
          ASSERT_TRUE(net.validate().empty()) << set.name << " net " << i;
          std::vector<float> embedding, net_columns;
          for (int c = 0; c < kContexts; ++c) {
            const features::NetContext ctx =
                features::random_context(library, net, rng);
            const features::RawFeatures raw = features::extract_features(net, ctx);
            const GraphSample sample = standardizer.make_sample(net, raw);
            const WirePrediction full =
                plan->run(sample, ws, c == 0 ? &embedding : nullptr);
            if (c == 0) {
              ASSERT_EQ(embedding.size(), sample.path_count * config.hidden_dim);
              for (std::size_t q = 0; q < sample.path_count; ++q)
                for (std::size_t j = 0; j < features::kNetPathFeatureCount; ++j)
                  net_columns.push_back(raw.h[q * features::kPathFeatureCount +
                                              features::kNetPathFeatureBase + j]);
            }
            const WirePrediction heads = plan->run_heads(
                embedding,
                standardizer.standardize_path_features(
                    features::path_features(ctx, net_columns)),
                ws);
            ASSERT_EQ(heads.slew.rows(), sample.path_count);
            for (std::size_t q = 0; q < sample.path_count; ++q) {
              EXPECT_EQ(std::bit_cast<std::uint32_t>(heads.slew(q, 0)),
                        std::bit_cast<std::uint32_t>(full.slew(q, 0)))
                  << l << " lanes, " << set.name << " net " << i
                  << " context " << c << " path " << q;
              EXPECT_EQ(std::bit_cast<std::uint32_t>(heads.delay(q, 0)),
                        std::bit_cast<std::uint32_t>(full.delay(q, 0)))
                  << l << " lanes, " << set.name << " net " << i
                  << " context " << c << " path " << q;
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GE(compared, 3u * 40u * kContexts);
  if (runnable_lanes().back() < 16)
    GTEST_SKIP() << "this CPU runs only " << runnable_lanes().back()
                 << "-lane kernels; wider widths untested";
}

TEST(GnnTransPlan, RunHeadsRejectsMisshapenInputs) {
  features::Standardizer standardizer;
  const std::vector<GraphSample> samples =
      rcgen_samples(rcnet::NetGenConfig{}, 1, 11, standardizer);
  const GraphSample& s = samples.front();
  const auto model = make_model(ModelKind::kGnnTrans, served_config());
  model->compile_inference();
  const tensor::NoGradGuard no_grad;  // the plan, not autograd, fills it
  std::vector<float> embedding;
  Workspace ws;
  (void)model->forward(s, &ws, &embedding);
  ASSERT_FALSE(embedding.empty());
  std::vector<float> ragged = embedding;
  ragged.pop_back();
  EXPECT_THROW((void)model->forward_heads(ragged, s.h, &ws),
               std::invalid_argument);
  const std::vector<float> more_paths(embedding.size() + 16, 0.0f);
  EXPECT_THROW((void)model->forward_heads(more_paths, s.h, &ws),
               std::invalid_argument);
  model->discard_inference();
  EXPECT_THROW((void)model->forward_heads(embedding, s.h, &ws),
               std::logic_error);
}

/// The Cephes expf sequence of the attention kernel, one float at a time.
float cephes_exp(float x) {
  const bool tiny = x < -87.33654f;
  if (tiny) x = -87.33654f;
  const float magic = 12582912.0f;
  const float t = x * 1.44269504088896341f + magic;
  const float n = t - magic;
  float r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  float y = 1.9875691500e-4f;
  y = y * r + 1.3981999507e-3f;
  y = y * r + 8.3334519073e-3f;
  y = y * r + 4.1665795894e-2f;
  y = y * r + 1.6666665459e-1f;
  y = y * r + 5.0000001201e-1f;
  y = y * (r * r) + r + 1.0f;
  const std::uint32_t pow2n = (std::bit_cast<std::uint32_t>(t) -
                               std::bit_cast<std::uint32_t>(magic) + 127u)
                              << 23;
  return tiny ? 0.0f : y * std::bit_cast<float>(pow2n);
}

TEST(GnnTransPlan, VectorExpMatchesScalarCephesBitwise) {
  std::vector<float> x = {-std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -87.33654f, -87.4f, -1e-30f, 0.0f};
  constexpr std::size_t kSpread = 100000;  // over [-88, 0]
  for (std::size_t i = 0; i < kSpread; ++i)
    x.push_back(-88.0f + 88.0f * static_cast<float>(i) / (kSpread - 1));
  const std::vector<std::size_t> lanes = runnable_lanes();
  for (const std::size_t l : lanes) {
    std::vector<float> got = x;
    GnnTransPlan::exp_for_testing(l, got);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(cephes_exp(x[i])))
          << l << " lanes, x = " << x[i];
  }
  EXPECT_THROW(GnnTransPlan::exp_for_testing(12, x), std::invalid_argument);
  if (lanes.back() < 16)
    GTEST_SKIP() << "this CPU runs only " << lanes.back() << "-lane exp";
}

TEST(GnnTransPlan, CompileReturnsNullWhereAutogradServes) {
  ModelConfig masked = small_config();
  masked.global_attention = false;
  EXPECT_EQ(GnnTransPlan::compile(*make_model(ModelKind::kGnnTrans, masked)),
            nullptr);
  for (const ModelKind kind : kAllKinds) {
    if (kind == ModelKind::kGnnTrans) continue;
    const auto model = make_model(kind, small_config());
    EXPECT_EQ(GnnTransPlan::compile(*model), nullptr) << to_string(kind);
    model->compile_inference();
    EXPECT_FALSE(model->has_inference_plan()) << to_string(kind);
  }
  EXPECT_NE(GnnTransPlan::compile(*make_model(ModelKind::kGnnTrans, small_config())),
            nullptr);
}

TEST(GnnTransPlan, CompileNamesMisshapenWeight) {
  const auto model = make_model(ModelKind::kGnnTrans, small_config());
  std::stringstream buf;
  save_model(buf, *model);
  std::string bytes = buf.str();
  // Model header after the magic: version, kind, seven dims, seed and flags
  // (u32 each); then gnn[0].w_self and gnn[0].w_neigh as [u64 rows][u64
  // cols][floats]. Swapping w_neigh's rows and cols keeps the byte count.
  const std::size_t header = bytes.find("GNNTRANS_MODEL") + 14 + 11 * 4;
  const std::size_t w_self_floats = 12 * 8;
  const std::size_t w_neigh = header + 16 + w_self_floats * sizeof(float);
  std::uint64_t rows = 0, cols = 0;
  std::memcpy(&rows, bytes.data() + w_neigh, 8);
  std::memcpy(&cols, bytes.data() + w_neigh + 8, 8);
  ASSERT_EQ(rows, 12u);
  ASSERT_EQ(cols, 8u);
  std::memcpy(bytes.data() + w_neigh, &cols, 8);
  std::memcpy(bytes.data() + w_neigh + 8, &rows, 8);

  std::stringstream bad(bytes);
  const auto loaded = load_model(bad);  // the stream itself parses
  try {
    loaded->compile_inference();
    FAIL() << "expected a shape error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gnn[0].w_neigh"), std::string::npos)
        << e.what();
  }
}

}  // namespace
