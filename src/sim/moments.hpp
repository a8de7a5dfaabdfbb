/// \file moments.hpp
/// MNA-based circuit moment computation for RC nets.
///
/// With the source node held by an ideal step, the voltage transfer function
/// to node i expands as H_i(s) = 1 - m1_i s + m2_i s^2 - m3_i s^3 + ...
/// The recursive relation G m_{k+1} = C m_k (with m_0 = 1) yields the moments
/// for *arbitrary* RC topologies, including non-tree nets — this is what
/// PrimeTime-class timers build AWE/Arnoldi reductions on. The first moment is
/// exactly the Elmore delay.
#pragma once

#include <vector>

#include "rcnet/rcnet.hpp"

namespace gnntrans::sim {

/// Voltage-transfer moments per node (source row included, value 0).
struct Moments {
  std::vector<double> m1;  ///< Elmore delay per node (seconds)
  std::vector<double> m2;  ///< second moment (seconds^2)
  std::vector<double> m3;  ///< third moment (seconds^3)
};

/// Computes m1..m3 of \p net with one sparse LDLᵀ factor (linalg/tree_ldlt.hpp)
/// of the conductance matrix, source grounded, and three solves. Coupling caps
/// are grounded (Miller-0 assumption), which matches the quiet-aggressor view
/// an analytical metric has. Throws std::runtime_error if the net is
/// disconnected.
///
/// Precondition: net.validate() is empty.
[[nodiscard]] Moments compute_moments(const rcnet::RcNet& net);

/// Elmore delay per node via two passes over the source-rooted tree
/// (downstream-cap pass + accumulation pass). Exact on trees only; used to
/// cross-check the MNA path.
///
/// Precondition: net.is_tree().
[[nodiscard]] std::vector<double> elmore_tree(const rcnet::RcNet& net);

/// D2M delay metric per node: ln(2) * m1^2 / sqrt(m2) (Alpert et al., ISPD'00).
/// Clamps to 0 where m2 underflows.
[[nodiscard]] std::vector<double> d2m_from_moments(const Moments& moments);

}  // namespace gnntrans::sim
