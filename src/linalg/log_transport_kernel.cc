#include "linalg/log_transport_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "linalg/parallel_for.h"
#include "linalg/simd.h"
#include "linalg/simd_exp.h"

namespace otclean::linalg {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Σ_k costs[k]·e^{(vals[k] + lv[col(k)]) + lu_r} over one stored row —
/// the shared inner loop of the sparse TransportCost and
/// SupportTransportCost, written once so the streamed and cached variants
/// are bit-identical.
template <typename T>
double RowLogCost(const double* costs, const T* vals, const size_t* cols,
                  const double* lv, double lu_r, size_t len) {
  double s = 0.0;
  for (size_t k = 0; k < len; ++k) {
    s += costs[k] *
         simd::PolyExp(static_cast<double>(vals[k]) + lv[cols[k]] + lu_r);
  }
  return s;
}

}  // namespace

// ----------------------------------------------------------------- Dense --

template <typename T>
DenseLogKernel<T>::DenseLogKernel(Storage log_kernel, size_t num_threads,
                                  ThreadPool* pool)
    : DenseLogKernel(std::make_shared<const Storage>(std::move(log_kernel)),
                     num_threads, pool) {}

template <typename T>
DenseLogKernel<T>::DenseLogKernel(std::shared_ptr<const Storage> log_kernel,
                                  size_t num_threads, ThreadPool* pool)
    : log_kernel_(std::move(log_kernel)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
DenseLogKernel<T> DenseLogKernel<T>::FromCost(const Matrix& cost,
                                              double epsilon,
                                              size_t num_threads,
                                              ThreadPool* pool) {
  return FromCost(MatrixCostProvider(cost), epsilon, num_threads, pool);
}

template <typename T>
DenseLogKernel<T> DenseLogKernel<T>::FromCost(const CostProvider& cost,
                                              double epsilon,
                                              size_t num_threads,
                                              ThreadPool* pool) {
  assert(epsilon > 0.0);
  const size_t m = cost.rows();
  const size_t n = cost.cols();
  Matrix log_kernel(m, n);
  double* dst = log_kernel.data().data();
  if (const Matrix* dense = cost.AsMatrix()) {
    const double* src = dense->data().data();
    for (size_t i = 0; i < dense->size(); ++i) dst[i] = -src[i] / epsilon;
  } else {
    // Rows are disjoint and the provider is thread-safe for const calls,
    // so the build parallelizes deterministically; L is filled in place,
    // the raw cost never exists as a matrix.
    ParallelFor(
        m, ResolveThreadCount(num_threads),
        [&](size_t r0, size_t r1) {
          for (size_t r = r0; r < r1; ++r) {
            double* row = dst + r * n;
            cost.Fill(r, 0, n, row);
            for (size_t c = 0; c < n; ++c) row[c] = -row[c] / epsilon;
          }
        },
        GrainForWork(n), pool);
  }
  return DenseLogKernel(Storage(std::move(log_kernel)), num_threads, pool);
}

template <typename T>
void DenseLogKernel<T>::LogApply(const Vector& lv, Vector& out) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(lv.size() == n);
  if (out.size() != m) out = Vector(m);
  const T* data = log_kernel_->data().data();
  const double* lvdata = lv.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const T* row = data + r * n;
          const double mx = simd::AddMaxReduce(row, lvdata, n);
          out[r] = mx == kNegInf
                       ? kNegInf
                       : mx + std::log(simd::AddExpSumShifted(row, lvdata, mx,
                                                              n));
        }
      },
      GrainForWork(n), pool_);
}

template <typename T>
void DenseLogKernel<T>::LogApplyTranspose(const Vector& lu,
                                          Vector& out) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(lu.size() == m);
  if (out.size() != n) out = Vector(n);
  const T* data = log_kernel_->data().data();
  // Column strips, two passes each (max, then shifted exp-sum): every
  // output column accumulates the rows in ascending order with the
  // bit-identical-across-tiers strip accumulators of simd.h, while the
  // matrix is still walked row-major — the streamed-LSE answer to the
  // transpose's cache problem. Strips are worker-owned → deterministic.
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        std::vector<double> mx(std::min(c1 - c0, kCostStreamTileCols));
        std::vector<double> acc(mx.size());
        for (size_t s0 = c0; s0 < c1; s0 += mx.size()) {
          const size_t w = std::min(c1, s0 + mx.size()) - s0;
          std::fill(mx.begin(), mx.begin() + w, kNegInf);
          std::fill(acc.begin(), acc.begin() + w, 0.0);
          for (size_t r = 0; r < m; ++r) {
            // −inf rows carry no mass in any column; skipping them keeps
            // the max pass from ever being the only finite contribution.
            if (lu[r] == kNegInf) continue;
            simd::AddMaxAccumulate(lu[r], data + r * n + s0, mx.data(), w);
          }
          for (size_t r = 0; r < m; ++r) {
            if (lu[r] == kNegInf) continue;
            simd::AddExpSumAccumulate(lu[r], data + r * n + s0, mx.data(),
                                      acc.data(), w);
          }
          for (size_t c = 0; c < w; ++c) {
            out[s0 + c] =
                mx[c] == kNegInf ? kNegInf : mx[c] + std::log(acc[c]);
          }
        }
      },
      GrainForWork(m), pool_);
}

template <typename T>
Matrix DenseLogKernel<T>::ScaleToPlan(const Vector& lu,
                                      const Vector& lv) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(lu.size() == m && lv.size() == n);
  Matrix plan(m, n);
  const T* data = log_kernel_->data().data();
  double* out = plan.data().data();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          simd::AddExpWrite(lu[r], data + r * n, lv.begin(), out + r * n, n);
        }
      },
      GrainForWork(n), pool_);
  return plan;
}

template <typename T>
double DenseLogKernel<T>::TransportCost(const CostProvider& cost,
                                        const Vector& lu,
                                        const Vector& lv) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(cost.rows() == m && cost.cols() == n);
  assert(lu.size() == m && lv.size() == n);
  const T* data = log_kernel_->data().data();
  const double* lvdata = lv.begin();
  const Matrix* dense_cost = cost.AsMatrix();
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        // Per-block scratch: exp'd plan row (and a streamed cost tile when
        // the provider has no dense backing).
        std::vector<double> w(std::min(n, kCostStreamTileCols));
        std::vector<double> ctile(dense_cost == nullptr ? w.size() : 0);
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          if (lu[r] == kNegInf) continue;
          double row_sum = 0.0;
          for (size_t c0 = 0; c0 < n; c0 += w.size()) {
            const size_t c1 = std::min(n, c0 + w.size());
            simd::AddExpWrite(lu[r], data + r * n + c0, lvdata + c0, w.data(),
                              c1 - c0);
            const double* crow;
            if (dense_cost != nullptr) {
              crow = dense_cost->data().data() + r * n + c0;
            } else {
              cost.Fill(r, c0, c1, ctile.data());
              crow = ctile.data();
            }
            row_sum += simd::Dot(crow, w.data(), c1 - c0);
          }
          s += row_sum;
        }
        return s;
      },
      pool_);
}

// ---------------------------------------------------------------- Sparse --

template <typename T>
SparseLogKernel<T>::SparseLogKernel(const SparseMatrix& log_kernel,
                                    size_t num_threads, ThreadPool* pool)
    : SparseLogKernel(std::make_shared<const Storage>(log_kernel),
                      num_threads, pool) {}

template <typename T>
SparseLogKernel<T>::SparseLogKernel(std::shared_ptr<const Storage> storage,
                                    size_t num_threads, ThreadPool* pool)
    : storage_(std::move(storage)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
SparseLogKernel<T> SparseLogKernel<T>::FromCost(const Matrix& cost,
                                                double epsilon, double cutoff,
                                                size_t num_threads,
                                                ThreadPool* pool) {
  return FromCost(MatrixCostProvider(cost), epsilon, cutoff, num_threads,
                  pool);
}

template <typename T>
SparseLogKernel<T> SparseLogKernel<T>::FromCost(const CostProvider& cost,
                                                double epsilon, double cutoff,
                                                size_t num_threads,
                                                ThreadPool* pool) {
  assert(epsilon > 0.0);
  return SparseLogKernel(SparseMatrix::LogGibbsKernel(cost, epsilon, cutoff),
                         num_threads, pool);
}

template <typename T>
void SparseLogKernel<T>::LogApply(const Vector& lv, Vector& out) const {
  const Storage& s = *storage_;
  const size_t m = s.rows;
  assert(lv.size() == s.cols);
  if (out.size() != m) out = Vector(m);
  const double* lvdata = lv.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = s.row_ptr[r];
          const size_t len = s.row_ptr[r + 1] - k0;
          const T* vals = s.values.data() + k0;
          const size_t* cols = s.col_index.data() + k0;
          const double mx = simd::GatherAddMaxReduce(vals, cols, lvdata, len);
          out[r] = mx == kNegInf
                       ? kNegInf
                       : mx + std::log(simd::GatherAddExpSumShifted(
                                 vals, cols, lvdata, mx, len));
        }
      },
      GrainForWork(s.nnz() / (m == 0 ? 1 : m)), pool_);
}

template <typename T>
void SparseLogKernel<T>::LogApplyTranspose(const Vector& lu,
                                           Vector& out) const {
  const Storage& s = *storage_;
  const size_t n = s.cols;
  assert(lu.size() == s.rows);
  if (out.size() != n) out = Vector(n);
  const double* ludata = lu.begin();
  // Each output column is owned by one worker and reduced over the CSC
  // mirror — empty columns (truncated away entirely) come out −inf.
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
          const size_t k0 = s.col_ptr[c];
          const size_t len = s.col_ptr[c + 1] - k0;
          const T* vals = s.csc_values.data() + k0;
          const size_t* rows = s.csc_row_index.data() + k0;
          const double mx = simd::GatherAddMaxReduce(vals, rows, ludata, len);
          out[c] = mx == kNegInf
                       ? kNegInf
                       : mx + std::log(simd::GatherAddExpSumShifted(
                                 vals, rows, ludata, mx, len));
        }
      },
      GrainForWork(s.nnz() / (n == 0 ? 1 : n)), pool_);
}

template <typename T>
Matrix SparseLogKernel<T>::ScaleToPlan(const Vector& lu,
                                       const Vector& lv) const {
  const Storage& s = *storage_;
  assert(lu.size() == s.rows && lv.size() == s.cols);
  Matrix plan(s.rows, s.cols, 0.0);
  ParallelFor(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double lur = lu[r];
          for (size_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
            // Same (L + lv) + lu association as the dense AddExpWrite, so
            // cutoff-zero sparse plans match dense ones bit for bit.
            const size_t c = s.col_index[k];
            plan(r, c) =
                simd::PolyExp(static_cast<double>(s.values[k]) + lv[c] + lur);
          }
        }
      },
      GrainForWork(s.nnz() / (s.rows == 0 ? 1 : s.rows)), pool_);
  return plan;
}

template <typename T>
SparseMatrix SparseLogKernel<T>::ScaleToPlanSparse(const Vector& lu,
                                                   const Vector& lv) const {
  const Storage& s = *storage_;
  assert(lu.size() == s.rows && lv.size() == s.cols);
  std::vector<double> out(s.nnz());
  ParallelFor(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double lur = lu[r];
          for (size_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
            out[k] = simd::PolyExp(static_cast<double>(s.values[k]) +
                                   lv[s.col_index[k]] + lur);
          }
        }
      },
      GrainForWork(s.nnz() / (s.rows == 0 ? 1 : s.rows)), pool_);
  return SparseMatrix::FromParts(s.rows, s.cols, s.row_ptr, s.col_index,
                                 std::move(out));
}

template <typename T>
double SparseLogKernel<T>::SupportTransportCost(
    const std::vector<double>& support_costs, const Vector& lu,
    const Vector& lv) const {
  const Storage& s = *storage_;
  assert(support_costs.size() == s.nnz());
  assert(lu.size() == s.rows && lv.size() == s.cols);
  return BlockedReduce(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        double sum = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          if (lu[r] == kNegInf) continue;
          const size_t k0 = s.row_ptr[r];
          sum += RowLogCost(support_costs.data() + k0, s.values.data() + k0,
                            s.col_index.data() + k0, lv.begin(), lu[r],
                            s.row_ptr[r + 1] - k0);
        }
        return sum;
      },
      pool_);
}

template <typename T>
double SparseLogKernel<T>::TransportCost(const CostProvider& cost,
                                         const Vector& lu,
                                         const Vector& lv) const {
  const Storage& s = *storage_;
  assert(cost.rows() == s.rows && cost.cols() == s.cols);
  assert(lu.size() == s.rows && lv.size() == s.cols);
  // O(nnz) cost evaluations at the kernel's support, per-block scratch.
  return BlockedReduce(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        std::vector<double> crow(s.max_row_nnz);
        double sum = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          if (lu[r] == kNegInf) continue;
          const size_t k0 = s.row_ptr[r];
          const size_t len = s.row_ptr[r + 1] - k0;
          cost.Gather(r, s.col_index.data() + k0, len, crow.data());
          sum += RowLogCost(crow.data(), s.values.data() + k0,
                            s.col_index.data() + k0, lv.begin(), lu[r], len);
        }
        return sum;
      },
      pool_);
}

template class DenseLogKernel<double>;
template class DenseLogKernel<float>;
template class SparseLogKernel<double>;
template class SparseLogKernel<float>;

}  // namespace otclean::linalg
