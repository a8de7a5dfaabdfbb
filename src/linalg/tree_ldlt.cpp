#include "linalg/tree_ldlt.hpp"

#include <algorithm>
#include <cassert>

namespace gnntrans::linalg {

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// Nodes in DFS postorder of a spanning tree grown from \p root over the
/// nonzero branches (root last). Shorter than n when the graph is disconnected.
std::vector<std::uint32_t> tree_postorder(std::size_t n,
                                          std::span<const Branch> branches,
                                          std::uint32_t root) {
  std::vector<std::size_t> adj_start(n + 1, 0);
  for (const Branch& br : branches)
    if (br.g != 0.0) {
      ++adj_start[br.a + 1];
      ++adj_start[br.b + 1];
    }
  for (std::size_t v = 0; v < n; ++v) adj_start[v + 1] += adj_start[v];
  std::vector<std::uint32_t> adj(adj_start[n]);
  {
    std::vector<std::size_t> fill(adj_start.begin(), adj_start.end() - 1);
    for (const Branch& br : branches)
      if (br.g != 0.0) {
        adj[fill[br.a]++] = br.b;
        adj[fill[br.b]++] = br.a;
      }
  }

  // cursor[v]: next adjacency slot to scan; kUnseen until v is discovered.
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cursor(n, kUnseen);
  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<std::uint32_t> stack{root};
  cursor[root] = adj_start[root];
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    if (cursor[v] == adj_start[v + 1]) {
      stack.pop_back();
      order.push_back(v);
      continue;
    }
    const std::uint32_t w = adj[cursor[v]++];
    if (cursor[w] == kUnseen) {
      cursor[w] = adj_start[w];
      stack.push_back(w);
    }
  }
  return order;
}

}  // namespace

std::optional<TreeLdlt> TreeLdlt::factor(std::span<const double> shunt,
                                         std::span<const Branch> branches,
                                         std::uint32_t root, bool ground_root) {
  const std::size_t n = shunt.size();
  assert(root < n);

  TreeLdlt f;
  f.root_ = root;
  f.order_ = tree_postorder(n, branches, root);
  if (f.order_.size() != n) return std::nullopt;  // disconnected
  const std::size_t m = ground_root ? n - 1 : n;  // root is last: position n-1
  std::vector<std::uint32_t> pos(n);
  for (std::size_t k = 0; k < n; ++k) pos[f.order_[k]] = static_cast<std::uint32_t>(k);

  // Diagonal and strict upper triangle of the permuted matrix, by column. A
  // self loop (a == b) stamps nothing, so it is skipped like a zero branch.
  std::vector<double> diag(n);
  for (std::size_t k = 0; k < n; ++k) diag[k] = shunt[f.order_[k]];
  std::vector<std::size_t> col_start(m + 1, 0);
  for (const Branch& br : branches) {
    if (br.g == 0.0 || br.a == br.b) continue;
    diag[pos[br.a]] += br.g;
    diag[pos[br.b]] += br.g;
    const std::uint32_t hi = std::max(pos[br.a], pos[br.b]);
    if (hi < m) ++col_start[hi + 1];
  }
  for (std::size_t k = 0; k < m; ++k) col_start[k + 1] += col_start[k];
  std::vector<std::uint32_t> col_row(col_start[m]);
  std::vector<double> col_val(col_start[m]);
  {
    std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
    for (const Branch& br : branches) {
      if (br.g == 0.0 || br.a == br.b) continue;
      const auto [lo, hi] = std::minmax(pos[br.a], pos[br.b]);
      if (hi >= m) continue;  // couples to the grounded root
      col_row[fill[hi]] = lo;
      col_val[fill[hi]++] = -br.g;
    }
  }

  // Symbolic pass: elimination tree and entry count per column of L. Row k of
  // L is the set of etree paths from each upper-triangle entry i of column k
  // up towards k; flag[i] == k marks nodes already on row k's pattern.
  std::vector<std::uint32_t> parent(m, kNone);
  std::vector<std::uint32_t> flag(m);
  std::vector<std::size_t> lnz(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    flag[k] = static_cast<std::uint32_t>(k);
    for (std::size_t p = col_start[k]; p < col_start[k + 1]; ++p)
      for (std::uint32_t i = col_row[p]; flag[i] != k; i = parent[i]) {
        if (parent[i] == kNone) parent[i] = static_cast<std::uint32_t>(k);
        ++lnz[i];
        flag[i] = static_cast<std::uint32_t>(k);
      }
  }
  f.lp_.assign(m + 1, 0);
  for (std::size_t k = 0; k < m; ++k) f.lp_[k + 1] = f.lp_[k] + lnz[k];
  f.li_.resize(f.lp_[m]);
  f.lx_.resize(f.lp_[m]);
  f.d_.resize(m);

  // Numeric pass, up-looking: row k of L from a sparse triangular solve over
  // row k's pattern, gathered on a stack in topological order.
  std::vector<double> y(m, 0.0);
  std::vector<std::uint32_t> pattern(m);
  std::fill(lnz.begin(), lnz.end(), 0);
  std::fill(flag.begin(), flag.end(), kNone);
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t top = m;
    flag[k] = static_cast<std::uint32_t>(k);
    for (std::size_t p = col_start[k]; p < col_start[k + 1]; ++p) {
      std::uint32_t i = col_row[p];
      y[i] += col_val[p];
      std::size_t len = 0;
      for (; flag[i] != k; i = parent[i]) {
        pattern[len++] = i;
        flag[i] = static_cast<std::uint32_t>(k);
      }
      while (len > 0) pattern[--top] = pattern[--len];
    }
    double dk = diag[k];
    for (; top < m; ++top) {
      const std::uint32_t i = pattern[top];
      const double yi = y[i];
      y[i] = 0.0;
      const std::size_t p_end = f.lp_[i] + lnz[i];
      for (std::size_t p = f.lp_[i]; p < p_end; ++p) y[f.li_[p]] -= f.lx_[p] * yi;
      const double l_ki = yi / f.d_[i];
      dk -= l_ki * yi;
      f.li_[p_end] = static_cast<std::uint32_t>(k);
      f.lx_[p_end] = l_ki;
      ++lnz[i];
    }
    if (!(dk > 0.0)) return std::nullopt;  // not positive definite
    f.d_[k] = dk;
  }
  f.work_.resize(m);
  return f;
}

void TreeLdlt::solve(std::span<double> x) {
  const std::size_t m = d_.size();
  assert(x.size() == order_.size());
  for (std::size_t k = 0; k < m; ++k) work_[k] = x[order_[k]];
  for (std::size_t j = 0; j < m; ++j) {  // L z = b
    const double wj = work_[j];
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) work_[li_[p]] -= lx_[p] * wj;
  }
  for (std::size_t j = 0; j < m; ++j) work_[j] /= d_[j];  // D y = z
  for (std::size_t j = m; j-- > 0;) {  // Lᵀ x = y
    double acc = work_[j];
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) acc -= lx_[p] * work_[li_[p]];
    work_[j] = acc;
  }
  for (std::size_t k = 0; k < m; ++k) x[order_[k]] = work_[k];
  if (m < order_.size()) x[root_] = 0.0;
}

}  // namespace gnntrans::linalg
