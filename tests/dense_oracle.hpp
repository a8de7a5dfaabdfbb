// Dense reference for the sparse LDLᵀ kernel (linalg/tree_ldlt.hpp): the same
// matrix assembled as a full row-major array and solved by textbook Cholesky,
// which is itself cross-checked against a pivoted LU. O(n³), test-only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/tree_ldlt.hpp"

namespace dense_oracle {

/// n x n row-major diag(shunt) + branch stamps. A grounded root's row and
/// column become the identity's, so its solution entry is b[root] (pass 0).
inline std::vector<double> assemble(std::span<const double> shunt,
                                    std::span<const gnntrans::linalg::Branch> branches,
                                    std::optional<std::uint32_t> grounded_root = {}) {
  const std::size_t n = shunt.size();
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = shunt[i];
  for (const auto& br : branches) {
    a[br.a * n + br.a] += br.g;
    a[br.b * n + br.b] += br.g;
    a[br.a * n + br.b] -= br.g;
    a[br.b * n + br.a] -= br.g;
  }
  if (grounded_root) {
    const std::size_t r = *grounded_root;
    for (std::size_t j = 0; j < n; ++j) a[r * n + j] = a[j * n + r] = 0.0;
    a[r * n + r] = 1.0;
  }
  return a;
}

/// Lower Cholesky factor of \p a in place; false if a is not SPD.
inline bool cholesky(std::vector<double>& a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) acc -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (!(acc > 0.0)) return false;
        a[i * n + i] = std::sqrt(acc);
      } else {
        a[i * n + j] = acc / a[j * n + j];
      }
    }
  return true;
}

/// Solves L Lᵀ x = b in place with the factor from cholesky().
inline void cholesky_solve(const std::vector<double>& l, std::size_t n,
                           std::vector<double>& x) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) x[i] -= l[i * n + k] * x[k];
    x[i] /= l[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t k = i + 1; k < n; ++k) x[i] -= l[k * n + i] * x[k];
    x[i] /= l[i * n + i];
  }
}

/// LU with partial pivoting of a general n x n matrix, in place: unit-lower L
/// below the diagonal, U on and above it, and row i of PA is row perm[i] of A.
/// False if \p a is numerically singular.
inline bool lu(std::vector<double>& a, std::size_t n, std::vector<std::size_t>& perm) {
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    for (std::size_t r = k + 1; r < n; ++r)
      if (std::abs(a[r * n + k]) > std::abs(a[pivot * n + k])) pivot = r;
    if (!(std::abs(a[pivot * n + k]) > 1e-300)) return false;
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[k * n + c], a[pivot * n + c]);
      std::swap(perm[k], perm[pivot]);
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = a[r * n + k] /= a[k * n + k];
      for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= f * a[k * n + c];
    }
  }
  return true;
}

/// Solves A x = b in place with the factor and permutation from lu().
inline void lu_solve(const std::vector<double>& lu, std::size_t n,
                     const std::vector<std::size_t>& perm, std::vector<double>& x) {
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[perm[i]];
    for (std::size_t k = 0; k < i; ++k) y[i] -= lu[i * n + k] * y[k];
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t k = i + 1; k < n; ++k) y[i] -= lu[i * n + k] * y[k];
    y[i] /= lu[i * n + i];
  }
  x = std::move(y);
}

/// y = A x for a row-major n x n matrix.
inline std::vector<double> matvec(const std::vector<double>& a,
                                  const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) y[i] += a[i * n + j] * x[j];
  return y;
}

/// max_i |a_i - b_i| / max_i |b_i|.
inline double rel_inf_diff(std::span<const double> a, std::span<const double> b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

}  // namespace dense_oracle
