#include "linalg/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "linalg/parallel_for.h"
#include "linalg/simd.h"

namespace otclean::linalg {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::OuterProduct(const Vector& w, const Vector& h) {
  Matrix m(w.size(), h.size());
  for (size_t r = 0; r < w.size(); ++r) {
    const double wr = w[r];
    for (size_t c = 0; c < h.size(); ++c) m(r, c) = wr * h[c];
  }
  return m;
}

Vector Matrix::Row(size_t r) const {
  assert(r < rows_);
  Vector out(cols_);
  for (size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::Col(size_t c) const {
  assert(c < cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Vector Matrix::MatVec(const Vector& x) const {
  assert(x.size() == cols_);
  Vector y(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    y[r] = simd::Dot(data_.data() + r * cols_, x.begin(), cols_);
  }
  return y;
}

Vector Matrix::TransposeMatVec(const Vector& x) const {
  assert(x.size() == rows_);
  Vector y(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    simd::Axpy(xr, data_.data() + r * cols_, y.begin(), cols_);
  }
  return y;
}

Vector Matrix::RowSums() const {
  Vector y(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    y[r] = simd::Sum(data_.data() + r * cols_, cols_);
  }
  return y;
}

Vector Matrix::ColSums() const {
  Vector y(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) y[c] += row[c];
  }
  return y;
}

double Matrix::Sum() const { return simd::Sum(data_.data(), data_.size()); }

double Matrix::NormInf() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::ScaleRowsCols(const Vector& u, const Vector& v) const {
  assert(u.size() == rows_ && v.size() == cols_);
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    simd::ScaledHadamard(u[r], data_.data() + r * cols_, v.begin(),
                         out.data_.data() + r * cols_, cols_);
  }
  return out;
}

Matrix Matrix::CwiseProduct(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  simd::Hadamard(data_.data(), other.data_.data(), out.data_.data(),
                 data_.size());
  return out;
}

Matrix Matrix::GibbsKernel(double rho, size_t num_threads,
                           ThreadPool* pool) const {
  assert(rho > 0.0);
  Matrix out(rows_, cols_);
  ParallelFor(
      rows_, ResolveThreadCount(num_threads),
      [&](size_t r0, size_t r1) {
        for (size_t i = r0 * cols_; i < r1 * cols_; ++i) {
          out.data_[i] = std::exp(-data_[i] / rho);
        }
      },
      GrainForWork(cols_), pool);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

double Matrix::FrobeniusDot(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  return simd::Dot(data_.data(), other.data_.data(), data_.size());
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString(size_t max_rows, size_t max_cols) const {
  std::ostringstream os;
  const size_t nr = std::min(max_rows, rows_);
  const size_t nc = std::min(max_cols, cols_);
  os << rows_ << "x" << cols_ << " [\n";
  for (size_t r = 0; r < nr; ++r) {
    os << "  ";
    for (size_t c = 0; c < nc; ++c) {
      if (c > 0) os << ", ";
      os << (*this)(r, c);
    }
    if (nc < cols_) os << ", ...";
    os << "\n";
  }
  if (nr < rows_) os << "  ...\n";
  os << "]";
  return os.str();
}

}  // namespace otclean::linalg
