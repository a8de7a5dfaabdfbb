/// \file paths.hpp
/// Wire path enumeration (paper Def. 1 and Sec. II-B).
///
/// A wire path runs from the net source to one target sink. On a tree the path
/// is unique; on a non-tree net the paper defines it as the *shortest* path by
/// resistance, with remaining nodes/edges "on the branches".
#pragma once

#include <cstdint>
#include <vector>

#include "rcnet/rcnet.hpp"

namespace gnntrans::rcnet {

/// One source-to-sink timing path through the resistive graph.
struct WirePath {
  NodeId sink = 0;
  /// Nodes visited, source first, sink last.
  std::vector<NodeId> nodes;
  /// Resistor indices traversed; resistor_indices[i] joins nodes[i], nodes[i+1].
  std::vector<std::uint32_t> resistor_indices;

  /// Sum of resistance along the path.
  [[nodiscard]] double path_resistance(const RcNet& net) const;
};

/// Shortest-path tree by resistance, rooted at the net source.
///
/// parent[source] == source; unreachable nodes (invalid nets only) keep
/// parent == kNoParent. On a tree net this is simply the tree re-rooted at the
/// source, so tree-only algorithms (downstream cap, stage delay) generalize to
/// non-tree nets by running on this structure — exactly the paper's view that
/// the wire path is the shortest path and the rest are "branches".
struct ShortestPathTree {
  static constexpr NodeId kNoParent = static_cast<NodeId>(-1);
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> parent_resistor;
  std::vector<double> distance;  ///< accumulated resistance from source
  /// Nodes in non-decreasing distance order (source first); a valid
  /// topological order of the SP tree.
  std::vector<NodeId> order;
};

/// Computes the shortest-path tree of \p net (Dijkstra, resistance weights)
/// over \p adj, the net's build_adjacency(). Ties settle in adjacency order.
[[nodiscard]] ShortestPathTree shortest_path_tree(const RcNet& net,
                                                  const Adjacency& adj);

/// Enumerates the timing path for every sink of \p net (one WirePath per sink,
/// in sink order) by walking \p tree, the net's shortest_path_tree(), from
/// each sink back to the source. On a tree net that is the unique tree path.
[[nodiscard]] std::vector<WirePath> enumerate_paths(const RcNet& net,
                                                    const ShortestPathTree& tree);

/// Counts *simple* source-to-sink paths in the resistive graph, summed over
/// sinks and saturated at \p cap. This is the quantity plotted in Fig. 2(b):
/// on a tree it equals the sink count; loops multiply it.
[[nodiscard]] std::uint64_t count_simple_paths(const RcNet& net,
                                               std::uint64_t cap = 1'000'000);

}  // namespace gnntrans::rcnet
