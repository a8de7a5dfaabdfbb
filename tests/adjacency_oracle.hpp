// Vector-of-vectors reference for the CSR resistor adjacency
// (rcnet::build_adjacency) and everything that walks it: the Dijkstra
// shortest-path tree, the Table I features and the model zoo's aggregation
// operators. One std::vector of neighbours per node, filled by push_back in
// resistor order. Test-only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "features/features.hpp"
#include "tensor/ops.hpp"
#include "rcnet/paths.hpp"
#include "rcnet/rcnet.hpp"
#include "sim/moments.hpp"

namespace adjacency_oracle {

using gnntrans::rcnet::Neighbor;
using gnntrans::rcnet::NodeId;
using gnntrans::rcnet::RcNet;
using gnntrans::rcnet::ShortestPathTree;

using ListAdjacency = std::vector<std::vector<Neighbor>>;

inline ListAdjacency build(const RcNet& net) {
  ListAdjacency adj(net.node_count());
  for (std::size_t i = 0; i < net.resistors.size(); ++i) {
    const gnntrans::rcnet::Resistor& r = net.resistors[i];
    adj[r.a].push_back({r.b, static_cast<std::uint32_t>(i)});
    adj[r.b].push_back({r.a, static_cast<std::uint32_t>(i)});
  }
  return adj;
}

inline ShortestPathTree shortest_path_tree(const RcNet& net,
                                           const ListAdjacency& adj) {
  const std::size_t n = net.node_count();
  ShortestPathTree t;
  t.parent.assign(n, ShortestPathTree::kNoParent);
  t.parent_resistor.assign(n, 0);
  t.distance.assign(n, std::numeric_limits<double>::infinity());
  t.distance[net.source] = 0.0;
  t.parent[net.source] = net.source;
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, net.source);
  std::vector<bool> settled(n, false);
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (settled[v]) continue;
    settled[v] = true;
    t.order.push_back(v);
    for (const Neighbor& nb : adj[v]) {
      const double cand = dist + net.resistors[nb.resistor_index].ohms;
      if (cand < t.distance[nb.node]) {
        t.distance[nb.node] = cand;
        t.parent[nb.node] = v;
        t.parent_resistor[nb.node] = nb.resistor_index;
        heap.emplace(cand, nb.node);
      }
    }
  }
  return t;
}

struct Features {
  std::vector<float> x;  ///< [node_count x kNodeFeatureCount]
  std::vector<float> h;  ///< [path_count x kPathFeatureCount]
};

/// Table I features of \p net over \p adj and \p tree. The moments come from
/// the library's moment engine, which reads no adjacency.
inline Features features(const RcNet& net,
                         const gnntrans::features::NetContext& context,
                         const ListAdjacency& adj, const ShortestPathTree& tree) {
  namespace f = gnntrans::features;
  const std::size_t n = net.node_count();
  const gnntrans::sim::Moments m = gnntrans::sim::compute_moments(net);
  const std::vector<double> d2m = gnntrans::sim::d2m_from_moments(m);

  std::vector<double> down(net.ground_cap);
  for (const auto& cc : net.couplings) down[cc.victim_node] += cc.farads;
  for (std::size_t i = tree.order.size(); i-- > 1;) {
    const NodeId v = tree.order[i];
    const NodeId p = tree.parent[v];
    if (p != ShortestPathTree::kNoParent && p != v) down[p] += down[v];
  }

  constexpr double kF = 1e15, kS = 1e12, kR = 1e-3;
  Features out;
  out.x.assign(n * f::kNodeFeatureCount, 0.0f);
  for (NodeId v = 0; v < n; ++v) {
    float* row = out.x.data() + v * f::kNodeFeatureCount;
    double in_cap = 0.0, out_cap = 0.0, in_res = 0.0, out_res = 0.0;
    std::uint32_t in_nodes = 0, out_nodes = 0;
    for (const Neighbor& nb : adj[v]) {
      const double r = net.resistors[nb.resistor_index].ohms;
      if (tree.distance[nb.node] < tree.distance[v]) {
        ++in_nodes;
        in_cap += net.ground_cap[nb.node];
        in_res += r;
      } else {
        ++out_nodes;
        out_cap += net.ground_cap[nb.node];
        out_res += r;
      }
    }
    const NodeId p = tree.parent[v];
    const double stage = p == ShortestPathTree::kNoParent || p == v
                             ? 0.0
                             : std::max(0.0, m.m1[v] - m.m1[p]);
    row[f::kCapValue] = static_cast<float>(net.ground_cap[v] * kF);
    row[f::kNumInputNodes] = static_cast<float>(in_nodes);
    row[f::kNumOutputNodes] = static_cast<float>(out_nodes);
    row[f::kTotInputCap] = static_cast<float>(in_cap * kF);
    row[f::kTotOutputCap] = static_cast<float>(out_cap * kF);
    row[f::kNumConnectedRes] = static_cast<float>(adj[v].size());
    row[f::kTotInputRes] = static_cast<float>(in_res * kR);
    row[f::kTotOutputRes] = static_cast<float>(out_res * kR);
    row[f::kDownstreamCap] = static_cast<float>(down[v] * kF);
    row[f::kStageDelay] = static_cast<float>(stage * kS);
  }

  out.h.assign(net.sinks.size() * f::kPathFeatureCount, 0.0f);
  for (std::size_t q = 0; q < net.sinks.size(); ++q) {
    float* row = out.h.data() + q * f::kPathFeatureCount;
    const NodeId sink = net.sinks[q];
    const f::SinkLoad& load = context.loads[q];
    const double m1 = m.m1[sink];
    row[f::kInputSlew] = static_cast<float>(context.input_slew * kS);
    row[f::kDriveStrength] = static_cast<float>(context.driver_strength);
    row[f::kDriveFunction] = static_cast<float>(context.driver_function);
    row[f::kLoadStrength] = static_cast<float>(load.drive_strength);
    row[f::kLoadFunction] = static_cast<float>(load.function);
    row[f::kLoadCeff] = static_cast<float>(load.input_cap * kF);
    row[f::kElmoreDelay] = static_cast<float>(m1 * kS);
    row[f::kD2mDelay] = static_cast<float>(d2m[sink] * kS);
    row[f::kImpulseSpread] = static_cast<float>(
        std::sqrt(std::max(0.0, 2.0 * m.m2[sink] - m1 * m1)) * kS);
  }
  return out;
}

/// Every aggregation operator the model zoo reads.
struct GraphOperators {
  gnntrans::tensor::GraphMatrix weighted_adj;
  gnntrans::tensor::GraphMatrix mean_adj;
  gnntrans::tensor::GraphMatrix gcnii_adj;
  std::vector<std::uint8_t> attn_mask;
  gnntrans::tensor::GraphMatrix path_pool;
};

/// Builds every aggregation operator (weighted, mean and GCNII adjacency,
/// attention mask, path pooling) from \p adj and \p tree.
inline GraphOperators graph_operators(const RcNet& net, const ListAdjacency& adj,
                                      const ShortestPathTree& tree) {
  using gnntrans::tensor::GraphMatrix;
  const std::size_t n = net.node_count();
  GraphOperators ops;
  ops.weighted_adj = GraphMatrix(n, n);
  ops.mean_adj = GraphMatrix(n, n);
  for (NodeId v = 0; v < n; ++v) {
    const float inv_deg =
        adj[v].empty() ? 0.0f : 1.0f / static_cast<float>(adj[v].size());
    for (const Neighbor& nb : adj[v]) {
      ops.weighted_adj.add(
          v, nb.node, static_cast<float>(net.resistors[nb.resistor_index].ohms));
      ops.mean_adj.add(v, nb.node, inv_deg);
    }
  }
  ops.weighted_adj.row_normalize();

  ops.gcnii_adj = GraphMatrix(n, n);
  std::vector<float> inv_sqrt_deg(n);
  for (NodeId v = 0; v < n; ++v)
    inv_sqrt_deg[v] = 1.0f / std::sqrt(static_cast<float>(adj[v].size() + 1));
  for (NodeId v = 0; v < n; ++v) {
    ops.gcnii_adj.add(v, v, inv_sqrt_deg[v] * inv_sqrt_deg[v]);
    for (const Neighbor& nb : adj[v])
      ops.gcnii_adj.add(v, nb.node, inv_sqrt_deg[v] * inv_sqrt_deg[nb.node]);
  }

  ops.attn_mask.assign(n * n, 0);
  for (NodeId v = 0; v < n; ++v) {
    ops.attn_mask[v * n + v] = 1;
    for (const Neighbor& nb : adj[v]) ops.attn_mask[v * n + nb.node] = 1;
  }

  const auto paths = gnntrans::rcnet::enumerate_paths(net, tree);
  ops.path_pool = GraphMatrix(paths.size(), n);
  for (std::size_t q = 0; q < paths.size(); ++q) {
    const float w = 1.0f / static_cast<float>(paths[q].nodes.size());
    for (NodeId v : paths[q].nodes)
      ops.path_pool.add(static_cast<std::uint32_t>(q), v, w);
  }
  return ops;
}

}  // namespace adjacency_oracle
