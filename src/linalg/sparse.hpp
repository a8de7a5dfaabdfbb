/// \file sparse.hpp
/// Compressed-sparse-row matrix and conjugate-gradient solver.
///
/// No timing engine uses it: the RC solves are dense (matrix.hpp). Its CG is
/// the independent cross-check of the dense Cholesky solver in tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gnntrans::linalg {

/// Coordinate-format entry used while assembling a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Immutable CSR sparse matrix; duplicate triplets are summed at build time.
class CsrMatrix {
 public:
  /// Builds an n x n CSR matrix from (possibly duplicated) triplets.
  static CsrMatrix from_triplets(std::size_t n, std::vector<Triplet> triplets);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x. Requires x.size() == size().
  [[nodiscard]] std::vector<double> matvec(std::span<const double> x) const;

  /// Copy of the diagonal (zero where absent); used by the Jacobi preconditioner.
  [[nodiscard]] std::vector<double> diagonal() const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_starts_;
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

/// Result of a conjugate-gradient solve.
struct CgResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Jacobi-preconditioned conjugate gradient for SPD systems A x = b.
///
/// \param tol relative residual tolerance ||r|| <= tol * ||b||.
[[nodiscard]] CgResult conjugate_gradient(const CsrMatrix& a,
                                          std::span<const double> b,
                                          double tol = 1e-10,
                                          std::size_t max_iters = 10'000);

}  // namespace gnntrans::linalg
