#include "linalg/vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "linalg/simd.h"

namespace otclean::linalg {

double Vector::Sum() const { return simd::Sum(data_.data(), data_.size()); }

double Vector::Dot(const Vector& other) const {
  assert(size() == other.size());
  return simd::Dot(data_.data(), other.data_.data(), data_.size());
}

double Vector::Norm2() const { return std::sqrt(Dot(*this)); }

double Vector::NormInf() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Vector::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::max(m, v);
  return m;
}

double Vector::Min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::min(m, v);
  return m;
}

size_t Vector::ArgMax() const {
  if (data_.empty()) return 0;
  return static_cast<size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

Vector& Vector::operator+=(const Vector& other) {
  assert(size() == other.size());
  simd::Axpy(1.0, other.data_.data(), data_.data(), data_.size());
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  assert(size() == other.size());
  simd::Axpy(-1.0, other.data_.data(), data_.data(), data_.size());
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Vector& Vector::operator/=(double scalar) {
  for (double& v : data_) v /= scalar;
  return *this;
}

Vector Vector::CwiseProduct(const Vector& other) const {
  assert(size() == other.size());
  Vector out(size());
  simd::Hadamard(data_.data(), other.data_.data(), out.data_.data(),
                 data_.size());
  return out;
}

Vector Vector::CwiseExp() const {
  Vector out(size());
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = std::exp(data_[i]);
  return out;
}

Vector Vector::CwiseLogSafe() const {
  Vector out(size());
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = (data_[i] > 0.0) ? std::log(data_[i]) : 0.0;
  }
  return out;
}

void Vector::Normalize() {
  const double s = Sum();
  if (s > 0.0) *this /= s;
}

bool Vector::ApproxEquals(const Vector& other, double tol) const {
  if (size() != other.size()) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Vector::ToString(size_t max_entries) const {
  std::ostringstream os;
  os << "[";
  const size_t n = std::min(max_entries, size());
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  if (n < size()) os << ", ... (" << size() << " total)";
  os << "]";
  return os.str();
}

Vector operator+(Vector a, const Vector& b) {
  a += b;
  return a;
}
Vector operator-(Vector a, const Vector& b) {
  a -= b;
  return a;
}
Vector operator*(Vector a, double s) {
  a *= s;
  return a;
}
Vector operator*(double s, Vector a) {
  a *= s;
  return a;
}

}  // namespace otclean::linalg
