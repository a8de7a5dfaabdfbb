/// \file rcnet.hpp
/// RC net representation: the graph the paper calls G = (V, E, P).
///
/// Nodes are grounded parasitic capacitances, edges are parasitic resistances
/// (paper Sec. II-B). The driver output is the *source* node; load pins are
/// *sink* nodes. Non-tree nets carry extra resistors forming loops. Coupling
/// capacitances to aggressor nets provide the "SI mode" noise the golden timer
/// injects.
///
/// All values are SI units: ohms, farads, seconds.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

namespace gnntrans::rcnet {

using NodeId = std::uint32_t;

/// A parasitic resistance between two internal net nodes.
struct Resistor {
  NodeId a = 0;
  NodeId b = 0;
  double ohms = 0.0;
};

/// A coupling capacitance from a victim node to an external aggressor net.
///
/// The aggressor is not modeled structurally; its waveform is synthesized at
/// simulation time from \c aggressor_seed (arrival offset, slew, direction).
struct CouplingCap {
  NodeId victim_node = 0;
  double farads = 0.0;
  std::uint64_t aggressor_seed = 0;
};

/// An RC net. Node \c i has grounded capacitance \c ground_cap[i].
///
/// Invariants (checked by validate()): source < node_count(), every sink index
/// is a valid node distinct from the source, every resistor joins two distinct
/// valid nodes with positive resistance, all ground caps are positive, and the
/// resistive graph is connected.
struct RcNet {
  std::string name;
  NodeId source = 0;
  std::vector<NodeId> sinks;
  std::vector<double> ground_cap;
  std::vector<Resistor> resistors;
  std::vector<CouplingCap> couplings;

  [[nodiscard]] std::size_t node_count() const noexcept { return ground_cap.size(); }

  /// True iff the resistive graph is a spanning tree (n-1 edges + connected).
  [[nodiscard]] bool is_tree() const;

  /// Sum of all grounded capacitance, excluding coupling caps.
  [[nodiscard]] double total_ground_cap() const noexcept;

  /// Sum of coupling capacitance.
  [[nodiscard]] double total_coupling_cap() const noexcept;

  /// Sum of all resistance values.
  [[nodiscard]] double total_resistance() const noexcept;

  /// Human-readable structural validation; empty vector means the net is valid.
  ///
  /// When \p content_hash is non-null, a canonical FNV-1a/splitmix hash of the
  /// net's *content* — topology (node count, source, sinks, resistor
  /// endpoints, coupling victims/seeds) and element values (resistances,
  /// ground caps, coupling caps, hashed by raw double bit pattern) — is
  /// folded in during the same scans validation already performs, so hashing
  /// adds no extra pass. The name is deliberately excluded: two nets with
  /// identical parasitics hash identically (content addressing), and any
  /// element edit changes the hash. The hash is written even when validation
  /// fails (it is meaningless then; callers gate on the error list).
  [[nodiscard]] std::vector<std::string> validate(
      std::uint64_t* content_hash = nullptr) const;
};

/// Neighbor entry in an adjacency list: the node at the far end of a resistor.
struct Neighbor {
  NodeId node = 0;
  std::uint32_t resistor_index = 0;
};

/// Resistor adjacency in CSR form: node v's neighbours are
/// neighbors[offsets[v] .. offsets[v + 1]), in resistor-index order.
struct Adjacency {
  std::vector<std::uint32_t> offsets;  ///< node_count() + 1 entries
  std::vector<Neighbor> neighbors;     ///< two per resistor
  [[nodiscard]] std::span<const Neighbor> operator[](NodeId v) const noexcept {
    return {neighbors.data() + offsets[v], neighbors.data() + offsets[v + 1]};
  }
};

/// Builds the CSR resistor adjacency of \p net (one counting-sort pass).
/// Precondition: every resistor endpoint is < net.node_count().
[[nodiscard]] Adjacency build_adjacency(const RcNet& net);

/// Union-find over node ids with path halving.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }
  [[nodiscard]] NodeId find(NodeId v) {
    while (parent_[v] != v) v = parent_[v] = parent_[parent_[v]];
    return v;
  }
  /// Merges the sets of \p a and \p b; false when they already were one.
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

/// True iff the resistive graph of \p net is connected (single component
/// containing every node). An empty net is considered connected. Resistors
/// with an out-of-range endpoint join nothing.
[[nodiscard]] bool is_connected(const RcNet& net);

}  // namespace gnntrans::rcnet
