#include "rcnet/paths.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace gnntrans::rcnet {

double WirePath::path_resistance(const RcNet& net) const {
  double acc = 0.0;
  for (std::uint32_t idx : resistor_indices) acc += net.resistors[idx].ohms;
  return acc;
}

ShortestPathTree shortest_path_tree(const RcNet& net, const Adjacency& adj) {
  const std::size_t n = net.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  ShortestPathTree t;
  t.parent.assign(n, ShortestPathTree::kNoParent);
  t.parent_resistor.assign(n, 0);
  t.distance.assign(n, kInf);
  t.distance[net.source] = 0.0;
  t.parent[net.source] = net.source;
  t.order.reserve(n);

  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, net.source);
  std::vector<bool> settled(n, false);

  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (settled[v]) continue;  // stale entry
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

std::vector<WirePath> enumerate_paths(const RcNet& net,
                                      const ShortestPathTree& tree) {
  constexpr NodeId kNone = ShortestPathTree::kNoParent;

  std::vector<WirePath> paths;
  paths.reserve(net.sinks.size());
  for (NodeId sink : net.sinks) {
    WirePath p;
    p.sink = sink;
    // Walk parents from sink back to source, then reverse.
    for (NodeId v = sink; v != net.source; v = tree.parent[v]) {
      if (tree.parent[v] == kNone) break;  // unreachable (invalid net)
      p.nodes.push_back(v);
      p.resistor_indices.push_back(tree.parent_resistor[v]);
    }
    p.nodes.push_back(net.source);
    std::reverse(p.nodes.begin(), p.nodes.end());
    std::reverse(p.resistor_indices.begin(), p.resistor_indices.end());
    paths.push_back(std::move(p));
  }
  return paths;
}

namespace {

std::uint64_t dfs_count(const RcNet& net, const Adjacency& adj, NodeId v,
                        NodeId sink, std::vector<bool>& on_path,
                        std::uint64_t cap, std::uint64_t count) {
  if (v == sink) return count + 1;
  if (count >= cap) return count;
  on_path[v] = true;
  for (const Neighbor& nb : adj[v]) {
    if (!on_path[nb.node]) {
      count = dfs_count(net, adj, nb.node, sink, on_path, cap, count);
      if (count >= cap) break;
    }
  }
  on_path[v] = false;
  return count;
}

}  // namespace

std::uint64_t count_simple_paths(const RcNet& net, std::uint64_t cap) {
  const Adjacency adj = build_adjacency(net);
  std::uint64_t total = 0;
  std::vector<bool> on_path(net.node_count(), false);
  for (NodeId sink : net.sinks) {
    total += dfs_count(net, adj, net.source, sink, on_path, cap, 0);
    if (total >= cap) return cap;
  }
  return total;
}

}  // namespace gnntrans::rcnet
