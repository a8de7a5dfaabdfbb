// Tests for the RC-net representation, generator, path enumeration, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "rcnet/generate.hpp"
#include "rcnet/paths.hpp"
#include "rcnet/rcnet.hpp"
#include "rcnet/stats.hpp"

namespace {

using namespace gnntrans::rcnet;

/// Hand-built 4-node chain: 0 -1- 1 -2- 2 -3- 3, sinks {3}.
RcNet chain4() {
  RcNet net;
  net.name = "chain4";
  net.source = 0;
  net.sinks = {3};
  net.ground_cap = {1e-15, 1e-15, 1e-15, 2e-15};
  net.resistors = {{0, 1, 10.0}, {1, 2, 20.0}, {2, 3, 30.0}};
  return net;
}

/// Non-tree diamond: 0-1, 0-2, 1-3, 2-3, sinks {3}.
RcNet diamond() {
  RcNet net;
  net.name = "diamond";
  net.source = 0;
  net.sinks = {3};
  net.ground_cap = {1e-15, 1e-15, 1e-15, 1e-15};
  net.resistors = {{0, 1, 10.0}, {0, 2, 5.0}, {1, 3, 10.0}, {2, 3, 5.0}};
  return net;
}

TEST(RcNet, ChainIsValidTree) {
  const RcNet net = chain4();
  EXPECT_TRUE(net.validate().empty());
  EXPECT_TRUE(net.is_tree());
  EXPECT_TRUE(is_connected(net));
}

TEST(RcNet, DiamondIsValidNonTree) {
  const RcNet net = diamond();
  EXPECT_TRUE(net.validate().empty());
  EXPECT_FALSE(net.is_tree());
}

TEST(RcNet, TotalsSumComponents) {
  const RcNet net = chain4();
  EXPECT_DOUBLE_EQ(net.total_ground_cap(), 5e-15);
  EXPECT_DOUBLE_EQ(net.total_resistance(), 60.0);
  EXPECT_DOUBLE_EQ(net.total_coupling_cap(), 0.0);
}

using Errors = std::vector<std::string>;

TEST(RcNet, ValidateCatchesSelfLoop) {
  RcNet net = chain4();
  net.resistors.push_back({2, 2, 5.0});
  const auto errors = net.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("self loop"), std::string::npos);

  // A repeated segment, in either orientation, is named once per repeat with
  // its endpoints in ascending order.
  RcNet dup = chain4();
  dup.resistors.push_back({2, 1, 7.0});
  dup.resistors.push_back({1, 2, 8.0});
  EXPECT_EQ(dup.validate(),
            (Errors{"duplicate resistor between nodes 1 and 2",
                    "duplicate resistor between nodes 1 and 2"}));
}

TEST(RcNet, ValidateCatchesDisconnectedGraph) {
  RcNet net = chain4();
  net.resistors.pop_back();  // sink 3 now has no resistor
  EXPECT_EQ(net.validate(),
            (Errors{"sink 3 unreachable from source",
                    "node 3 is dangling (no resistor attached)"}));
  EXPECT_FALSE(is_connected(net));
  EXPECT_FALSE(net.is_tree());

  // Nodes 4-5 form an island joined to each other but not to the source;
  // node 6 has no resistor at all; sink 5 sits on the island. Sinks are
  // reported first in sink order, then every other stray node in index
  // order; a stray sink is not reported twice.
  RcNet island = chain4();
  island.ground_cap.resize(7, 1e-15);
  island.resistors.push_back({4, 5, 10.0});
  island.sinks = {5, 3};
  EXPECT_EQ(island.validate(),
            (Errors{"sink 5 unreachable from source",
                    "node 4 disconnected from source",
                    "node 6 is dangling (no resistor attached)"}));
  EXPECT_FALSE(is_connected(island));

  // Reachability is only judged on an otherwise well-formed net.
  island.ground_cap[6] = 0.0;
  EXPECT_EQ(island.validate(), (Errors{"node 6 has non-positive ground cap"}));
}

TEST(RcNet, ValidateCatchesNonPositiveValues) {
  RcNet net = chain4();
  net.ground_cap[1] = 0.0;
  EXPECT_FALSE(net.validate().empty());

  RcNet net2 = chain4();
  net2.resistors[0].ohms = -1.0;
  EXPECT_FALSE(net2.validate().empty());
}

TEST(RcNet, ValidateCatchesSinkEqualsSource) {
  RcNet net = chain4();
  net.sinks.push_back(net.source);
  EXPECT_FALSE(net.validate().empty());
}

TEST(Adjacency, DegreesMatchResistors) {
  const RcNet net = chain4();
  const Adjacency adj = build_adjacency(net);
  EXPECT_EQ(adj[0].size(), 1u);
  EXPECT_EQ(adj[1].size(), 2u);
  EXPECT_EQ(adj[2].size(), 2u);
  EXPECT_EQ(adj[3].size(), 1u);
}

TEST(Paths, ChainPathVisitsAllNodesInOrder) {
  const RcNet net = chain4();
  const auto paths =
      enumerate_paths(net, shortest_path_tree(net, build_adjacency(net)));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].sink, 3u);
  EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(paths[0].resistor_indices.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].path_resistance(net), 60.0);
}

TEST(Paths, DiamondTakesShortestResistancePath) {
  const RcNet net = diamond();
  const auto paths =
      enumerate_paths(net, shortest_path_tree(net, build_adjacency(net)));
  ASSERT_EQ(paths.size(), 1u);
  // Via node 2: 5 + 5 = 10 beats via node 1: 10 + 10 = 20.
  EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(paths[0].path_resistance(net), 10.0);
}

TEST(Paths, ShortestPathTreeDistancesAreMonotone) {
  const RcNet net = diamond();
  const ShortestPathTree t = shortest_path_tree(net, build_adjacency(net));
  EXPECT_DOUBLE_EQ(t.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(t.distance[2], 5.0);
  EXPECT_DOUBLE_EQ(t.distance[3], 10.0);
  EXPECT_DOUBLE_EQ(t.distance[1], 10.0);
  // Settle order is non-decreasing in distance.
  for (std::size_t i = 1; i < t.order.size(); ++i)
    EXPECT_GE(t.distance[t.order[i]], t.distance[t.order[i - 1]]);
}

TEST(Paths, SimplePathCountOnTreeEqualsSinkCount) {
  RcNet net = chain4();
  net.sinks = {1, 3};
  EXPECT_EQ(count_simple_paths(net), 2u);
}

TEST(Paths, SimplePathCountOnDiamondCountsBothRoutes) {
  EXPECT_EQ(count_simple_paths(diamond()), 2u);
}

TEST(Paths, SimplePathCountSaturatesAtCap) {
  EXPECT_EQ(count_simple_paths(diamond(), 1), 1u);
}

// ---- Generator properties over seeds ----

class GeneratorSeeded : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorSeeded, GeneratedNetsAreValid) {
  std::mt19937_64 rng(GetParam());
  NetGenConfig cfg;
  for (int i = 0; i < 20; ++i) {
    const RcNet net = generate_net(cfg, rng, "n");
    EXPECT_TRUE(net.validate().empty()) << "seed=" << GetParam() << " i=" << i;
    EXPECT_GE(net.node_count(), cfg.min_nodes);
    EXPECT_LE(net.node_count(), cfg.max_nodes);
    EXPECT_GE(net.sinks.size(), 1u);
  }
}

TEST_P(GeneratorSeeded, SinksAreDistinctAndNotSource) {
  std::mt19937_64 rng(GetParam() + 50);
  NetGenConfig cfg;
  for (int i = 0; i < 10; ++i) {
    const RcNet net = generate_net(cfg, rng, "n");
    std::set<NodeId> unique(net.sinks.begin(), net.sinks.end());
    EXPECT_EQ(unique.size(), net.sinks.size());
    EXPECT_FALSE(unique.contains(net.source));
  }
}

TEST_P(GeneratorSeeded, DeterministicForSameSeed) {
  NetGenConfig cfg;
  std::mt19937_64 rng1(GetParam()), rng2(GetParam());
  const RcNet a = generate_net(cfg, rng1, "x");
  const RcNet b = generate_net(cfg, rng2, "x");
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.resistors.size(), b.resistors.size());
  for (std::size_t i = 0; i < a.resistors.size(); ++i) {
    EXPECT_EQ(a.resistors[i].a, b.resistors[i].a);
    EXPECT_DOUBLE_EQ(a.resistors[i].ohms, b.resistors[i].ohms);
  }
}

TEST_P(GeneratorSeeded, FanoutRequestHonored) {
  std::mt19937_64 rng(GetParam() + 99);
  NetGenConfig cfg;
  for (std::uint32_t fanout : {1u, 3u, 8u, 20u}) {
    const RcNet net = generate_net_for_fanout(cfg, rng, "f", fanout);
    EXPECT_EQ(net.sinks.size(), fanout);
    EXPECT_TRUE(net.validate().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeeded, ::testing::Range(1, 11));

TEST(Generator, NonTreeFractionRoughlyRespected) {
  std::mt19937_64 rng(7);
  NetGenConfig cfg;
  cfg.non_tree_fraction = 0.5;
  int non_tree = 0;
  const int total = 300;
  for (int i = 0; i < total; ++i)
    if (!generate_net(cfg, rng, "n").is_tree()) ++non_tree;
  // Loose band around 50% (some loop-add attempts fail on tiny nets).
  EXPECT_GT(non_tree, total / 4);
  EXPECT_LT(non_tree, 3 * total / 4);
}

TEST(Generator, ZeroNonTreeFractionYieldsOnlyTrees) {
  std::mt19937_64 rng(8);
  NetGenConfig cfg;
  cfg.non_tree_fraction = 0.0;
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(generate_net(cfg, rng, "n").is_tree());
}

TEST(Stats, ComputeStatsMatchesHandNet) {
  const NetStats s = compute_stats(diamond());
  EXPECT_EQ(s.node_count, 4u);
  EXPECT_EQ(s.resistor_count, 4u);
  EXPECT_EQ(s.sink_count, 1u);
  EXPECT_EQ(s.simple_path_count, 2u);
  EXPECT_FALSE(s.is_tree);
}

TEST(Stats, AggregateCountsNonTreeAndHistogram) {
  std::vector<RcNet> nets{chain4(), diamond(), chain4()};
  const CollectionStats agg = aggregate_stats(nets, 1);
  EXPECT_EQ(agg.net_count, 3u);
  EXPECT_EQ(agg.non_tree_count, 1u);
  EXPECT_EQ(agg.max_simple_paths, 2u);
  EXPECT_EQ(agg.max_nodes, 4u);
  // Histogram buckets of width 1: two nets with 1 path, one with 2.
  ASSERT_GE(agg.path_histogram.size(), 3u);
  EXPECT_EQ(agg.path_histogram[1], 2u);
  EXPECT_EQ(agg.path_histogram[2], 1u);
}

TEST(Stats, PathCountsStayBoundedLikeFig2b) {
  // The paper's Fig. 2(b): wire path counts stay small (max 49 at 200k nets).
  std::mt19937_64 rng(21);
  NetGenConfig cfg;
  std::vector<RcNet> nets;
  for (int i = 0; i < 200; ++i) nets.push_back(generate_net(cfg, rng, "n"));
  const CollectionStats agg = aggregate_stats(nets);
  EXPECT_LE(agg.max_simple_paths, 128u);
  EXPECT_GE(agg.mean_simple_paths, 1.0);
  EXPECT_LE(agg.mean_simple_paths, 30.0);
}

}  // namespace
