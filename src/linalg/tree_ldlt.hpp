/// \file tree_ldlt.hpp
/// Sparse LDLᵀ factor of an RC net's conductance-type matrix.
///
/// The matrix is A = diag(shunt) + sum over branches of g (e_a - e_b)(e_a - e_b)ᵀ:
/// a per-node diagonal plus one off-diagonal entry per resistor. RC nets are
/// trees plus a few loop resistors, so nodes are eliminated in DFS postorder
/// of a spanning tree grown from a root node (leaves first, root last). On a
/// tree that order produces no fill at all; each loop resistor fills only the
/// tree path it closes. The factor is built by an elimination tree and an
/// up-looking numeric pass, so factoring and solving cost O(nnz(L)).
///
/// Two forms share the kernel: with the root *grounded* its row and column are
/// dropped (the source held at 0 V, as in moment computation), otherwise the
/// root is simply the last unknown (the transient companion matrix, whose
/// driver stamp sits on the root's diagonal).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace gnntrans::linalg {

/// One off-diagonal coupling, stamped the way a resistor of conductance g is:
/// +g on A(a,a) and A(b,b), -g on A(a,b) and A(b,a).
struct Branch {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double g = 0.0;
};

/// LDLᵀ factor of the matrix above, in tree elimination order.
class TreeLdlt {
 public:
  /// Factors the n x n matrix with n = shunt.size(). Branches with g == 0 add
  /// nothing and are left out. Returns std::nullopt when some node has no
  /// path of nonzero branches to \p root, or when a pivot D is not > 0 (the
  /// matrix is not positive definite).
  [[nodiscard]] static std::optional<TreeLdlt> factor(
      std::span<const double> shunt, std::span<const Branch> branches,
      std::uint32_t root, bool ground_root);

  /// Solves A x = b in place; \p x holds b on entry, indexed by node. In the
  /// grounded form b[root] is ignored and x[root] is set to 0.
  void solve(std::span<double> x);

  /// Number of eliminated unknowns (n - 1 in the grounded form, else n).
  [[nodiscard]] std::size_t size() const noexcept { return d_.size(); }

  /// Off-diagonal entries of L: n - 1 on a tree in the full form, plus fill.
  [[nodiscard]] std::size_t factor_entries() const noexcept { return lx_.size(); }

 private:
  TreeLdlt() = default;

  std::vector<std::uint32_t> order_;  ///< order_[k] = node eliminated k-th
  std::vector<std::size_t> lp_;       ///< column starts of L (size() + 1)
  std::vector<std::uint32_t> li_;     ///< row (elimination position) per entry
  std::vector<double> lx_;            ///< value per entry
  std::vector<double> d_;             ///< pivots, all > 0
  std::vector<double> work_;          ///< permuted right-hand side in solve()
  std::uint32_t root_ = 0;
};

}  // namespace gnntrans::linalg
