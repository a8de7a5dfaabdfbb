#include "sim/moments.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "linalg/tree_ldlt.hpp"
#include "rcnet/paths.hpp"

namespace gnntrans::sim {

using rcnet::NodeId;
using rcnet::RcNet;

Moments compute_moments(const RcNet& net) {
  const std::size_t n = net.node_count();
  assert(n >= 2);
  std::vector<linalg::Branch> branches;
  branches.reserve(net.resistors.size());
  for (const rcnet::Resistor& r : net.resistors)
    branches.push_back({r.a, r.b, 1.0 / r.ohms});
  // Conductance matrix with the source grounded: no shunt to ground anywhere.
  const std::vector<double> no_shunt(n, 0.0);
  auto ldlt = linalg::TreeLdlt::factor(no_shunt, branches, net.source,
                                       /*ground_root=*/true);
  if (!ldlt)
    throw std::runtime_error("compute_moments: conductance matrix not SPD (net '" +
                             net.name + "' likely disconnected)");

  // Node capacitance including grounded coupling caps.
  std::vector<double> caps = net.ground_cap;
  for (const rcnet::CouplingCap& cc : net.couplings) caps[cc.victim_node] += cc.farads;

  // m_{k+1} = G^{-1} (C .* m_k), with m_0 = all-ones; the source entry is 0.
  Moments out;
  out.m1 = caps;  // C .* 1
  ldlt->solve(out.m1);
  out.m2.resize(n);
  for (NodeId v = 0; v < n; ++v) out.m2[v] = caps[v] * out.m1[v];
  ldlt->solve(out.m2);
  out.m3.resize(n);
  for (NodeId v = 0; v < n; ++v) out.m3[v] = caps[v] * out.m2[v];
  ldlt->solve(out.m3);
  return out;
}

std::vector<double> elmore_tree(const RcNet& net) {
  assert(net.is_tree());
  // On a tree the SP tree is the source-rooted tree; its order is topological.
  const rcnet::ShortestPathTree t =
      rcnet::shortest_path_tree(net, rcnet::build_adjacency(net));
  const std::size_t n = net.node_count();

  // Pass 1 (reverse order): downstream capacitance per node.
  std::vector<double> down_cap = net.ground_cap;
  for (const rcnet::CouplingCap& cc : net.couplings)
    down_cap[cc.victim_node] += cc.farads;
  for (std::size_t i = t.order.size(); i-- > 1;)
    down_cap[t.parent[t.order[i]]] += down_cap[t.order[i]];

  // Pass 2 (forward order): delay(v) = delay(parent) + R_edge * down_cap(v).
  std::vector<double> delay(n, 0.0);
  for (std::size_t i = 1; i < t.order.size(); ++i) {
    const NodeId v = t.order[i];
    delay[v] = delay[t.parent[v]] +
               net.resistors[t.parent_resistor[v]].ohms * down_cap[v];
  }
  return delay;
}

std::vector<double> d2m_from_moments(const Moments& moments) {
  constexpr double kLn2 = 0.693147180559945309;
  std::vector<double> d2m(moments.m1.size(), 0.0);
  for (std::size_t i = 0; i < d2m.size(); ++i) {
    const double m2 = moments.m2[i];
    d2m[i] = (m2 > 0.0) ? kLn2 * moments.m1[i] * moments.m1[i] / std::sqrt(m2) : 0.0;
  }
  return d2m;
}

}  // namespace gnntrans::sim
