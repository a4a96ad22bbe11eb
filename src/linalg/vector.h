#ifndef OTCLEAN_LINALG_VECTOR_H_
#define OTCLEAN_LINALG_VECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

namespace otclean::linalg {

/// Dense double-precision vector.
///
/// This is the library's replacement for an external linear-algebra
/// dependency: it provides exactly the operations the Sinkhorn, NMF and LP
/// kernels need (elementwise arithmetic, safe division, reductions).
class Vector {
 public:
  Vector() = default;
  explicit Vector(size_t n, double fill = 0.0) : data_(n, fill) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  static Vector Ones(size_t n) { return Vector(n, 1.0); }
  static Vector Zeros(size_t n) { return Vector(n, 0.0); }

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  double* begin() { return data_.data(); }
  double* end() { return data_.data() + data_.size(); }
  const double* begin() const { return data_.data(); }
  const double* end() const { return data_.data() + data_.size(); }

  /// Sum of entries.
  double Sum() const;
  /// Dot product; requires equal sizes.
  double Dot(const Vector& other) const;
  /// Euclidean norm.
  double Norm2() const;
  /// Max-norm.
  double NormInf() const;
  /// Largest entry (−inf on empty).
  double Max() const;
  /// Smallest entry (+inf on empty).
  double Min() const;
  /// Index of the largest entry; 0 on empty.
  size_t ArgMax() const;

  /// In-place elementwise operations; all require matching sizes.
  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double scalar);
  Vector& operator/=(double scalar);

  /// Elementwise product.
  Vector CwiseProduct(const Vector& other) const;
  /// Elementwise exp.
  Vector CwiseExp() const;
  /// Elementwise natural log with log(0) := 0 (measure-theoretic 0·log 0).
  Vector CwiseLogSafe() const;

  /// Rescales to sum to 1; no-op if the sum is not positive.
  void Normalize();

  /// True if max |this - other| <= tol (sizes must match).
  bool ApproxEquals(const Vector& other, double tol) const;

  std::string ToString(size_t max_entries = 16) const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(Vector a, double s);
Vector operator*(double s, Vector a);

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_VECTOR_H_
