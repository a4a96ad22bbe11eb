#ifndef OTCLEAN_LINALG_MATRIX_H_
#define OTCLEAN_LINALG_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/vector.h"

namespace otclean::linalg {

class ThreadPool;

/// Dense row-major double matrix.
///
/// Provides the kernels used across the library: matrix–vector products
/// (plain and transposed), diagonal scaling (the Sinkhorn
/// `diag(u)·K·diag(v)` form), elementwise maps, and row/column reductions.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);
  /// Rank-one product w·hᵀ.
  static Matrix OuterProduct(const Vector& w, const Vector& h);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Returns row r as a vector copy.
  Vector Row(size_t r) const;
  /// Returns column c as a vector copy.
  Vector Col(size_t c) const;
  /// y = A·x. Requires x.size() == cols().
  Vector MatVec(const Vector& x) const;
  /// y = Aᵀ·x. Requires x.size() == rows().
  Vector TransposeMatVec(const Vector& x) const;
  /// Row sums (length rows()).
  Vector RowSums() const;
  /// Column sums (length cols()).
  Vector ColSums() const;
  /// Sum of all entries.
  double Sum() const;
  /// Largest entry magnitude.
  double NormInf() const;

  Matrix Transposed() const;
  /// diag(u)·A·diag(v). Requires u.size()==rows(), v.size()==cols().
  Matrix ScaleRowsCols(const Vector& u, const Vector& v) const;
  /// Elementwise product (Hadamard).
  Matrix CwiseProduct(const Matrix& other) const;
  /// Elementwise exp(-this/rho): the Sinkhorn Gibbs kernel K = e^{-C/ρ}.
  /// Computed in row chunks over `num_threads` (0 = hardware concurrency)
  /// on `pool` (borrowed; inline when null); every entry is computed on
  /// its own, so the result is the same at any thread count.
  Matrix GibbsKernel(double rho, size_t num_threads = 1,
                     ThreadPool* pool = nullptr) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Frobenius inner product ⟨A,B⟩ = Σ a_ij b_ij.
  double FrobeniusDot(const Matrix& other) const;

  /// True if max |this - other| <= tol (shapes must match).
  bool ApproxEquals(const Matrix& other, double tol) const;

  std::string ToString(size_t max_rows = 8, size_t max_cols = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_MATRIX_H_
