// Tests for Table I feature extraction, standardization, sample assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <sstream>
#include <utility>

#include "adjacency_oracle.hpp"
#include "differential_nets.hpp"
#include "features/dataset.hpp"
#include "features/features.hpp"
#include "netlist/generate.hpp"
#include "nn/layers.hpp"
#include "rcnet/generate.hpp"
#include "tensor/serialize.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::features;

/// 3-node chain 0 -10Ω- 1 -20Ω- 2 with caps 1,2,3 fF, sink {2}.
rcnet::RcNet chain3() {
  rcnet::RcNet net;
  net.name = "c3";
  net.source = 0;
  net.sinks = {2};
  net.ground_cap = {1e-15, 2e-15, 3e-15};
  net.resistors = {{0, 1, 10.0}, {1, 2, 20.0}};
  return net;
}

NetContext fixed_context(const rcnet::RcNet& net) {
  NetContext ctx;
  ctx.input_slew = 40e-12;
  ctx.driver_resistance = 200.0;
  ctx.driver_strength = 2;
  ctx.driver_function = 1;
  ctx.loads.assign(net.sinks.size(), SinkLoad{4, 6, 2e-15});
  return ctx;
}

TEST(Features, NodeFeatureValuesHandChecked) {
  const rcnet::RcNet net = chain3();
  const RawFeatures rf = extract_features(net, fixed_context(net));
  ASSERT_EQ(rf.x.size(), 3 * kNodeFeatureCount);

  // Node 1: one input neighbor (node 0), one output neighbor (node 2).
  const float* n1 = rf.x.data() + 1 * kNodeFeatureCount;
  EXPECT_FLOAT_EQ(n1[kCapValue], 2.0f);          // 2 fF
  EXPECT_FLOAT_EQ(n1[kNumInputNodes], 1.0f);
  EXPECT_FLOAT_EQ(n1[kNumOutputNodes], 1.0f);
  EXPECT_FLOAT_EQ(n1[kTotInputCap], 1.0f);       // node 0's 1 fF
  EXPECT_FLOAT_EQ(n1[kTotOutputCap], 3.0f);      // node 2's 3 fF
  EXPECT_FLOAT_EQ(n1[kNumConnectedRes], 2.0f);
  EXPECT_FLOAT_EQ(n1[kTotInputRes], 0.010f);     // 10 ohm in kOhm
  EXPECT_FLOAT_EQ(n1[kTotOutputRes], 0.020f);
  // Downstream cap at node 1 = caps of {1, 2} = 5 fF.
  EXPECT_FLOAT_EQ(n1[kDownstreamCap], 5.0f);
  // Stage delay into node 1 = Elmore(1) - Elmore(0) = 10 * (2+3)fF = 50 fs.
  EXPECT_NEAR(n1[kStageDelay], 0.05f, 1e-5f);
}

TEST(Features, NodeFeatureCountMatchesTableOne) {
  // Table I lists exactly ten node rows; driver context must NOT leak into
  // node features (it is path-only information in the paper). Path features
  // are Table I's eight plus the two-moment impulse-spread slew metric.
  EXPECT_EQ(kNodeFeatureCount, 10u);
  EXPECT_EQ(kPathFeatureCount, 9u);
}

TEST(Features, PathFeatureValuesHandChecked) {
  const rcnet::RcNet net = chain3();
  const RawFeatures rf = extract_features(net, fixed_context(net));
  ASSERT_EQ(rf.h.size(), kPathFeatureCount);
  const float* h = rf.h.data();
  EXPECT_FLOAT_EQ(h[kInputSlew], 40.0f);
  EXPECT_FLOAT_EQ(h[kDriveStrength], 2.0f);
  EXPECT_FLOAT_EQ(h[kDriveFunction], 1.0f);
  EXPECT_FLOAT_EQ(h[kLoadStrength], 4.0f);
  EXPECT_FLOAT_EQ(h[kLoadFunction], 6.0f);
  EXPECT_FLOAT_EQ(h[kLoadCeff], 2.0f);
  // Elmore at sink: 10*(2+3)fF + 20*3fF = 50 + 60 = 110 fs = 0.11 ps.
  EXPECT_NEAR(h[kElmoreDelay], 0.11f, 1e-5f);
  EXPECT_GT(h[kD2mDelay], 0.0f);
  EXPECT_LE(h[kD2mDelay], h[kElmoreDelay] * 1.001f);
}

TEST(Features, MisalignedLoadsThrow) {
  const rcnet::RcNet net = chain3();
  NetContext ctx = fixed_context(net);
  ctx.loads.clear();
  EXPECT_THROW(extract_features(net, ctx), std::invalid_argument);
}

TEST(Features, RandomContextCoversLoads) {
  const auto lib = cell::CellLibrary::make_default();
  std::mt19937_64 rng(3);
  rcnet::NetGenConfig cfg;
  const rcnet::RcNet net = rcnet::generate_net(cfg, rng, "n");
  const NetContext ctx = random_context(lib, net, rng);
  EXPECT_EQ(ctx.loads.size(), net.sinks.size());
  EXPECT_GT(ctx.input_slew, 0.0);
  EXPECT_GT(ctx.driver_resistance, 0.0);
}

// ---- Records and standardizer ----

std::vector<WireRecord> small_records(std::size_t count = 30,
                                      std::uint64_t seed = 5) {
  const auto lib = cell::CellLibrary::make_default();
  WireDatasetConfig cfg;
  cfg.net_count = count;
  cfg.seed = seed;
  cfg.sim_config.steps = 300;
  return generate_wire_records(cfg, lib);
}

TEST(Dataset, GeneratesRequestedRecordCount) {
  const auto records = small_records();
  EXPECT_EQ(records.size(), 30u);
  for (const WireRecord& r : records) {
    EXPECT_EQ(r.slew_labels.size(), r.net.sinks.size());
    EXPECT_EQ(r.delay_labels.size(), r.net.sinks.size());
    for (double d : r.delay_labels) EXPECT_GT(d, 0.0);
    for (double s : r.slew_labels) EXPECT_GT(s, 0.0);
  }
}

TEST(Dataset, StandardizerNormalizesLabelSpace) {
  const auto records = small_records();
  Standardizer std_;
  std_.fit(records);
  // Round trip.
  EXPECT_NEAR(std_.unstandardize_slew(std_.standardize_slew(3e-11)), 3e-11, 1e-20);
  EXPECT_NEAR(std_.unstandardize_delay(std_.standardize_delay(7e-12)), 7e-12, 1e-20);

  // Standardized labels over the fit set have ~zero mean, ~unit variance.
  double sum = 0.0, sq = 0.0;
  std::size_t n = 0;
  for (const WireRecord& r : records)
    for (double d : r.delay_labels) {
      const double z = std_.standardize_delay(d);
      sum += z;
      sq += z * z;
      ++n;
    }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 1e-6);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(Dataset, MakeSampleBuildsConsistentOperators) {
  const auto records = small_records(10, 7);
  Standardizer std_;
  std_.fit(records);
  for (const WireRecord& rec : records) {
    const nn::GraphSample s = std_.make_sample(rec);
    EXPECT_EQ(s.node_count, rec.net.node_count());
    EXPECT_EQ(s.path_count, rec.net.sinks.size());
    EXPECT_EQ(s.x.rows(), s.node_count);
    EXPECT_EQ(s.x.cols(), kNodeFeatureCount);
    EXPECT_EQ(s.h.rows(), s.path_count);
    EXPECT_EQ(s.non_tree, !rec.net.is_tree());

    // Pooling rows sum to 1 (mean over path nodes).
    std::vector<double> row_sum(s.path_count, 0.0);
    for (std::size_t k = 0; k < s.path_pool.nnz(); ++k)
      row_sum[s.path_pool.row_index[k]] += s.path_pool.values[k];
    for (double v : row_sum) EXPECT_NEAR(v, 1.0, 1e-5);

    // Weighted adjacency rows sum to 1 after normalization.
    std::vector<double> adj_sum(s.node_count, 0.0);
    for (std::size_t k = 0; k < s.weighted_adj.nnz(); ++k)
      adj_sum[s.weighted_adj.row_index[k]] += s.weighted_adj.values[k];
    for (double v : adj_sum) EXPECT_NEAR(v, 1.0, 1e-4);

    // The derived attention mask is N*N with self loops.
    const std::vector<std::uint8_t> mask = nn::neighbor_mask(s.weighted_adj);
    EXPECT_EQ(mask.size(), s.node_count * s.node_count);
    for (std::size_t v = 0; v < s.node_count; ++v)
      EXPECT_EQ(mask[v * s.node_count + v], 1);

    // The serving form builds the same inputs and no label tensors.
    const nn::GraphSample u = std_.make_sample(rec.net, rec.raw);
    EXPECT_TRUE(std::ranges::equal(u.x.values(), s.x.values()));
    EXPECT_TRUE(std::ranges::equal(u.h.values(), s.h.values()));
    EXPECT_EQ(u.weighted_adj.values, s.weighted_adj.values);
    EXPECT_EQ(u.non_tree, s.non_tree);
    EXPECT_FALSE(u.slew_label.defined());
    EXPECT_FALSE(u.delay_label.defined());
    EXPECT_TRUE(u.slew_seconds.empty());
    EXPECT_TRUE(u.delay_seconds.empty());
  }
}

// ---- CSR adjacency vs the vector-of-vectors oracle ----

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(const tensor::GraphMatrix& a, const tensor::GraphMatrix& b) {
  return a.rows == b.rows && a.cols == b.cols &&
         same_bits(a.row_index, b.row_index) &&
         same_bits(a.col_index, b.col_index) && same_bits(a.values, b.values);
}

TEST(CsrVsListAdjacency, FeaturizationIsBitwiseIdentical) {
  Standardizer standardizer;
  standardizer.fit(small_records(4, 13));
  std::mt19937_64 rng(31);
  for (const differential_nets::NetSet& set : differential_nets::sets()) {
    for (int i = 0; i < set.nets; ++i) {
      const rcnet::RcNet net = rcnet::generate_net(set.cfg, rng, set.name);
      ASSERT_TRUE(net.validate().empty()) << set.name << " net " << i;
      const NetContext ctx = fixed_context(net);
      const RawFeatures raw = extract_features(net, ctx);
      const sim::WireAnalysis& wa = raw.analysis;

      // Per-node neighbour order.
      const adjacency_oracle::ListAdjacency list = adjacency_oracle::build(net);
      ASSERT_EQ(wa.adjacency.offsets.size(), net.node_count() + 1);
      ASSERT_EQ(wa.adjacency.neighbors.size(), 2 * net.resistors.size());
      const auto pairs = [](std::span<const rcnet::Neighbor> neighbors) {
        std::vector<std::pair<rcnet::NodeId, std::uint32_t>> out;
        for (const rcnet::Neighbor& nb : neighbors)
          out.emplace_back(nb.node, nb.resistor_index);
        return out;
      };
      for (rcnet::NodeId v = 0; v < net.node_count(); ++v)
        ASSERT_EQ(pairs(wa.adjacency[v]), pairs(list[v]))
            << set.name << " net " << i << " node " << v;

      // Shortest-path tree: parents, settle order, distances.
      const rcnet::ShortestPathTree tree =
          adjacency_oracle::shortest_path_tree(net, list);
      EXPECT_EQ(wa.sp_tree.parent, tree.parent) << set.name << " net " << i;
      EXPECT_EQ(wa.sp_tree.parent_resistor, tree.parent_resistor);
      EXPECT_EQ(wa.sp_tree.order, tree.order);
      EXPECT_TRUE(same_bits(wa.sp_tree.distance, tree.distance));

      // Table I features.
      const adjacency_oracle::Features ref =
          adjacency_oracle::features(net, ctx, list, tree);
      EXPECT_TRUE(same_bits(raw.x, ref.x)) << set.name << " net " << i;
      EXPECT_TRUE(same_bits(raw.h, ref.h)) << set.name << " net " << i;

      // Every aggregation operator: the sample's two and the zoo's derived ones.
      const nn::GraphSample sample = standardizer.make_sample(net, raw);
      const adjacency_oracle::GraphOperators ops =
          adjacency_oracle::graph_operators(net, list, tree);
      EXPECT_TRUE(same_bits(sample.weighted_adj, ops.weighted_adj))
          << set.name << " net " << i;
      EXPECT_TRUE(same_bits(nn::mean_adjacency(sample.weighted_adj), ops.mean_adj));
      EXPECT_TRUE(same_bits(nn::gcnii_adjacency(sample.weighted_adj), ops.gcnii_adj));
      EXPECT_TRUE(same_bits(sample.path_pool, ops.path_pool));
      EXPECT_EQ(nn::neighbor_mask(sample.weighted_adj), ops.attn_mask);
    }
  }
}

TEST(Dataset, MakeSampleWithoutFitThrows) {
  const auto records = small_records(2, 9);
  const Standardizer unfitted;
  EXPECT_THROW(unfitted.make_sample(records.front()), std::logic_error);
}

TEST(Dataset, StandardizerSaveLoadRoundTrip) {
  const auto records = small_records(12, 11);
  Standardizer a;
  a.fit(records);
  std::stringstream buf;
  a.save(buf);
  Standardizer b;
  ASSERT_TRUE(b.load(buf).ok());
  EXPECT_DOUBLE_EQ(a.standardize_slew(5e-11), b.standardize_slew(5e-11));
  EXPECT_DOUBLE_EQ(a.standardize_delay(5e-12), b.standardize_delay(5e-12));
  // Feature standardization matches too.
  const nn::GraphSample sa = a.make_sample(records.front());
  const nn::GraphSample sb = b.make_sample(records.front());
  for (std::size_t i = 0; i < sa.x.size(); ++i)
    EXPECT_FLOAT_EQ(sa.x.values()[i], sb.x.values()[i]);
}

// Writes a standardizer block the way Standardizer::save lays it out.
std::string standardizer_bytes(const std::vector<double>& x_mean,
                               const std::vector<double>& x_std,
                               const std::vector<double>& h_std) {
  std::stringstream out;
  tensor::write_doubles(out, x_mean);
  tensor::write_doubles(out, x_std);
  tensor::write_doubles(out, std::vector<double>(kPathFeatureCount, 0.0));
  tensor::write_doubles(out, h_std);
  tensor::write_doubles(out, {0.0, 1.0, 0.0, 1.0});
  return out.str();
}

TEST(Dataset, StandardizerLoadRejectsMalformedBlocks) {
  const std::vector<double> x_mean(kNodeFeatureCount, 0.0);
  const std::vector<double> x_std(kNodeFeatureCount, 1.0);
  const std::vector<double> h_std(kPathFeatureCount, 1.0);
  {
    std::istringstream in(standardizer_bytes(x_mean, x_std, h_std));
    Standardizer ok;
    EXPECT_TRUE(ok.load(in).ok());
    EXPECT_TRUE(ok.fitted());
  }
  // x_mean truncated to one entry: make_sample would index past its end.
  {
    std::istringstream in(standardizer_bytes({0.0}, x_std, h_std));
    Standardizer truncated;
    const core::Status status = truncated.load(in);
    EXPECT_EQ(status.code(), core::ErrorCode::kParseError);
    EXPECT_NE(status.message().find("x_mean"), std::string::npos)
        << status.to_string();
    EXPECT_FALSE(truncated.fitted());  // nothing was kept
  }
  // A zero std would divide every standardized value by zero.
  {
    std::vector<double> zero_std = h_std;
    zero_std.back() = 0.0;
    std::istringstream in(standardizer_bytes(x_mean, x_std, zero_std));
    Standardizer degenerate;
    const core::Status status = degenerate.load(in);
    EXPECT_EQ(status.code(), core::ErrorCode::kParseError);
    EXPECT_NE(status.message().find("h_std"), std::string::npos)
        << status.to_string();
  }
}

TEST(Dataset, RecordsFromDesignCoverEveryNet) {
  const auto lib = cell::CellLibrary::make_default();
  netlist::DesignGenConfig cfg;
  cfg.startpoints = 4;
  cfg.levels = 3;
  cfg.cells_per_level = 6;
  cfg.seed = 13;
  const netlist::Design design = netlist::generate_design(cfg, lib, "d");
  sim::TransientConfig tc;
  tc.steps = 300;
  sim::GoldenTimer timer(tc);
  const auto records = records_from_design(design, lib, timer);
  EXPECT_EQ(records.size(), design.net_count());
  for (const WireRecord& r : records)
    EXPECT_EQ(r.context.loads.size(), r.net.sinks.size());
}

TEST(Dataset, DeterministicGeneration) {
  const auto a = small_records(8, 21);
  const auto b = small_records(8, 21);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].delay_labels.size(), b[i].delay_labels.size());
    for (std::size_t q = 0; q < a[i].delay_labels.size(); ++q)
      EXPECT_DOUBLE_EQ(a[i].delay_labels[q], b[i].delay_labels[q]);
  }
}

}  // namespace
