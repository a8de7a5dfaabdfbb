/// \file matrix.hpp
/// Dense double-precision matrix and vector utilities used by the MNA-based
/// timing engines (moment computation, transient simulation).
///
/// Wire RC nets are small (tens to a few hundred nodes), so a cache-friendly
/// row-major dense representation is the right tool for factorizations.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace gnntrans::linalg {

/// Row-major dense matrix of doubles.
///
/// Invariants: data_.size() == rows_ * cols_ at all times.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Creates a rows x cols matrix filled with \p fill.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Mutable view of row \p r.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  /// Returns the identity matrix of size n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Matrix-vector product y = A x. Requires x.size() == cols().
  [[nodiscard]] std::vector<double> matvec(std::span<const double> x) const;

  /// Matrix-matrix product (this * other). Requires cols() == other.rows().
  [[nodiscard]] Matrix matmul(const Matrix& other) const;

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Adds \p value to the diagonal entry (i, i); convenient for MNA stamping.
  void add_diag(std::size_t i, double value) noexcept { (*this)(i, i) += value; }

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
[[nodiscard]] double norm2(std::span<const double> x) noexcept;

/// Dot product; requires a.size() == b.size().
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// y += alpha * x (in place); requires y.size() == x.size().
void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept;

/// Element-wise maximum absolute difference between two equal-length vectors.
[[nodiscard]] double max_abs_diff(std::span<const double> a,
                                  std::span<const double> b) noexcept;

}  // namespace gnntrans::linalg
