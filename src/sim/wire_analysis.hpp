/// \file wire_analysis.hpp
/// Analytical wire analysis bundle consumed by feature extraction (Table I).
///
/// Combines the moment engine, the D2M metric, and shortest-path-tree-based
/// downstream capacitance / stage delay into one pass over a net. All
/// quantities are well defined on both tree and non-tree nets: non-tree nets
/// use exact MNA moments and the Dijkstra shortest-path tree (the paper's
/// "wire path + branches" decomposition).
#pragma once

#include <vector>

#include "rcnet/paths.hpp"
#include "rcnet/rcnet.hpp"
#include "sim/moments.hpp"

namespace gnntrans::sim {

/// Per-node and per-path analytical results for one net.
struct WireAnalysis {
  Moments moments;                    ///< exact MNA moments (m1 = Elmore)
  std::vector<double> d2m;            ///< D2M delay metric per node
  std::vector<double> downstream_cap; ///< farads, on the shortest-path tree
  std::vector<double> stage_delay;    ///< m1[v] - m1[parent(v)], clamped at 0
  rcnet::Adjacency adjacency;         ///< the net's only adjacency build
  rcnet::ShortestPathTree sp_tree;
  std::vector<rcnet::WirePath> paths; ///< one timing path per sink
};

/// Runs the full analytical pass over \p net. Builds the net's resistor
/// adjacency once and keeps it, so featurization reads it from here.
///
/// Precondition: net.validate() is empty.
[[nodiscard]] WireAnalysis analyze_wire(const rcnet::RcNet& net);

}  // namespace gnntrans::sim
