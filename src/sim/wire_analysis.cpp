#include "sim/wire_analysis.hpp"

#include <algorithm>

namespace gnntrans::sim {

using rcnet::NodeId;

WireAnalysis analyze_wire(const rcnet::RcNet& net) {
  WireAnalysis wa;
  wa.moments = compute_moments(net);
  wa.d2m = d2m_from_moments(wa.moments);
  wa.adjacency = rcnet::build_adjacency(net);
  wa.sp_tree = rcnet::shortest_path_tree(net, wa.adjacency);
  wa.paths = rcnet::enumerate_paths(net, wa.sp_tree);

  const std::size_t n = net.node_count();

  // Downstream cap: accumulate each node's cap into its SP-tree ancestors by
  // walking the settle order backwards (children settle after parents).
  wa.downstream_cap = net.ground_cap;
  for (const rcnet::CouplingCap& cc : net.couplings)
    wa.downstream_cap[cc.victim_node] += cc.farads;
  for (std::size_t i = wa.sp_tree.order.size(); i-- > 1;) {
    const NodeId v = wa.sp_tree.order[i];
    const NodeId p = wa.sp_tree.parent[v];
    if (p != rcnet::ShortestPathTree::kNoParent && p != v)
      wa.downstream_cap[p] += wa.downstream_cap[v];
  }

  // Stage delay: Elmore increment along the SP-tree edge into each node.
  wa.stage_delay.assign(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = wa.sp_tree.parent[v];
    if (p == rcnet::ShortestPathTree::kNoParent || p == v) continue;
    wa.stage_delay[v] = std::max(0.0, wa.moments.m1[v] - wa.moments.m1[p]);
  }
  return wa;
}

}  // namespace gnntrans::sim
