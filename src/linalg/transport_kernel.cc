#include "linalg/transport_kernel.h"

#include <algorithm>
#include <cassert>

#include "linalg/parallel_for.h"
#include "linalg/simd.h"

namespace otclean::linalg {

// -------------------------------------------------------------- storages --

MatrixF32::MatrixF32(const Matrix& m)
    : rows_(m.rows()),
      cols_(m.cols()),
      data_(m.data().begin(), m.data().end()) {}

std::vector<double> SparsePattern::GatherSupportCosts(
    const CostProvider& cost) const {
  assert(cost.rows() == rows && cost.cols() == cols);
  std::vector<double> out(nnz());
  for (size_t r = 0; r < rows; ++r) {
    const size_t k0 = row_ptr[r];
    cost.Gather(r, col_index.data() + k0, row_ptr[r + 1] - k0, out.data() + k0);
  }
  return out;
}

template <typename T>
SparseStorage<T>::SparseStorage(const SparseMatrix& csr)
    : values(csr.values().begin(), csr.values().end()) {
  rows = csr.rows();
  cols = csr.cols();
  row_ptr = csr.row_ptr();
  col_index = csr.col_index();
  col_ptr.assign(cols + 1, 0);
  for (size_t c : col_index) ++col_ptr[c + 1];
  for (size_t c = 0; c < cols; ++c) col_ptr[c + 1] += col_ptr[c];
  csc_row_index.resize(nnz());
  csc_values.resize(nnz());
  std::vector<size_t> fill(col_ptr.begin(), col_ptr.end() - 1);
  // Row-order scan keeps each column's entries sorted by ascending row.
  for (size_t r = 0; r < rows; ++r) {
    max_row_nnz = std::max(max_row_nnz, row_ptr[r + 1] - row_ptr[r]);
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const size_t dst = fill[col_index[k]]++;
      csc_row_index[dst] = r;
      csc_values[dst] = values[k];
    }
  }
}

namespace {

/// Bytes of kernel rows one tile of the fused sweep reads: the tile's
/// rows are dotted with v and then, while still in L2, added into the
/// block's Kᵀu partial. Tiling only changes which calls handle which rows,
/// never any element's arithmetic, so it does not enter the results.
constexpr size_t kFusedTileBytes = size_t{128} << 10;

}  // namespace

size_t FusedSweepBlockRows(size_t rows, size_t cols) {
  if (rows == 0) return 1;
  const size_t target = std::max(GrainForWork(cols), kMinFusedBlockRows);
  const size_t blocks = (rows + target - 1) / target;
  return (rows + blocks - 1) / blocks;
}

// --------------------------------------------------------- TransportKernel --

double TransportKernel::UpdateRowsApplyTranspose(const Vector& marginal,
                                                 double exponent,
                                                 const Vector& v,
                                                 const Vector& u,
                                                 Vector& next_u, Vector& ktu,
                                                 Vector& scratch) const {
  const size_t m = rows();
  assert(marginal.size() == m && u.size() == m);
  if (next_u.size() != m) next_u = Vector(m);
  Apply(v, scratch);
  const double residual = simd::ScalingUpdate(
      marginal.begin(), scratch.begin(), exponent, u.begin(), next_u.begin(),
      m);
  ApplyTranspose(next_u, ktu);
  return residual;
}

// ----------------------------------------------------------------- Dense --

template <typename T>
DenseKernel<T>::DenseKernel(Storage kernel, size_t num_threads,
                            ThreadPool* pool)
    : DenseKernel(std::make_shared<const Storage>(std::move(kernel)),
                  num_threads, pool) {}

template <typename T>
DenseKernel<T>::DenseKernel(std::shared_ptr<const Storage> kernel,
                            size_t num_threads, ThreadPool* pool)
    : kernel_(std::move(kernel)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
DenseKernel<T> DenseKernel<T>::FromCost(const Matrix& cost, double epsilon,
                                        size_t num_threads, ThreadPool* pool) {
  assert(epsilon > 0.0);
  return DenseKernel(Storage(cost.GibbsKernel(epsilon, num_threads, pool)),
                     num_threads, pool);
}

template <typename T>
void DenseKernel<T>::Apply(const Vector& v, Vector& y) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(v.size() == n);
  if (y.size() != m) y = Vector(m);
  const T* data = kernel_->data().data();
  const double* vdata = v.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          y[r] = simd::Dot(data + r * n, vdata, n);
        }
      },
      GrainForWork(n), pool_);
}

template <typename T>
void DenseKernel<T>::ApplyTranspose(const Vector& u, Vector& y) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(u.size() == m);
  if (y.size() != n) y = Vector(n);
  const T* data = kernel_->data().data();
  // Column-blocked: each worker owns output range [c0, c1) and streams the
  // rows in ascending order (AxpyRows: two rows per pass in the vector
  // tiers, traffic-only blocking), so every y[c] accumulates the same
  // mul+add sequence for any thread count and any tier.
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        const size_t w = c1 - c0;
        double* out = y.begin() + c0;
        for (size_t c = 0; c < w; ++c) out[c] = 0.0;
        simd::AxpyRows(u.begin(), data + c0, n, m, out, w);
      },
      GrainForWork(m), pool_);
}

template <typename T>
double DenseKernel<T>::UpdateRowsApplyTranspose(const Vector& marginal,
                                                double exponent,
                                                const Vector& v,
                                                const Vector& u,
                                                Vector& next_u, Vector& ktu,
                                                Vector& scratch) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(marginal.size() == m && v.size() == n && u.size() == m);
  if (next_u.size() != m) next_u = Vector(m);
  if (ktu.size() != n) ktu = Vector(n);
  const size_t block_rows = FusedSweepBlockRows(m, n);
  // At least one block, so ktu is zeroed even for an empty kernel.
  const size_t num_blocks =
      std::max<size_t>(1, (m + block_rows - 1) / block_rows);
  // Scratch: K·v for every row, each block's residual, and the Kᵀu
  // partials of blocks 1.. (block 0 accumulates straight into ktu).
  const size_t scratch_size = m + num_blocks + (num_blocks - 1) * n;
  if (scratch.size() != scratch_size) scratch = Vector(scratch_size);
  double* kv = scratch.begin();
  double* residuals = kv + m;
  double* partials = residuals + num_blocks;
  const T* data = kernel_->data().data();
  const size_t tile_rows = std::max<size_t>(
      1, kFusedTileBytes / (std::max<size_t>(n, 1) * sizeof(T)));
  ParallelFor(
      num_blocks, threads_,
      [&](size_t b0, size_t b1) {
        for (size_t b = b0; b < b1; ++b) {
          const size_t r_end = std::min(m, (b + 1) * block_rows);
          double* out = b == 0 ? ktu.begin() : partials + (b - 1) * n;
          std::fill(out, out + n, 0.0);
          double residual = 0.0;
          for (size_t r0 = b * block_rows; r0 < r_end; r0 += tile_rows) {
            const size_t r1 = std::min(r_end, r0 + tile_rows);
            for (size_t r = r0; r < r1; ++r) {
              kv[r] = simd::Dot(data + r * n, v.begin(), n);
            }
            residual = std::max(
                residual, simd::ScalingUpdate(marginal.begin() + r0, kv + r0,
                                              exponent, u.begin() + r0,
                                              next_u.begin() + r0, r1 - r0));
            // Rows whose new scaling is 0 are skipped unread (AxpyRows).
            simd::AxpyRows(next_u.begin() + r0, data + r0 * n, n, r1 - r0, out,
                           n);
          }
          residuals[b] = residual;
        }
      },
      /*grain=*/1, pool_);
  if (num_blocks > 1) {
    ParallelFor(
        n, threads_,
        [&](size_t c0, size_t c1) {
          for (size_t b = 1; b < num_blocks; ++b) {
            const double* part = partials + (b - 1) * n;
            for (size_t c = c0; c < c1; ++c) ktu[c] += part[c];
          }
        },
        GrainForWork(num_blocks), pool_);
  }
  double residual = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) {
    residual = std::max(residual, residuals[b]);
  }
  return residual;
}

template <typename T>
Matrix DenseKernel<T>::ScaleToPlan(const Vector& u, const Vector& v) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(u.size() == m && v.size() == n);
  Matrix plan(m, n);
  const T* data = kernel_->data().data();
  const double* vdata = v.begin();
  double* out = plan.data().data();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          simd::ScaledHadamard(u[r], data + r * n, vdata, out + r * n, n);
        }
      },
      GrainForWork(n), pool_);
  return plan;
}

template <typename T>
double DenseKernel<T>::TransportCost(const CostProvider& cost, const Vector& u,
                                     const Vector& v) const {
  const size_t m = rows();
  const size_t n = cols();
  assert(cost.rows() == m && cost.cols() == n);
  assert(u.size() == m && v.size() == n);
  const T* kdata = kernel_->data().data();
  const double* vdata = v.begin();
  const Matrix* dense_cost = cost.AsMatrix();
  // Whole-row triple dots against an in-memory cost (zero-copy), else cost
  // rows pulled tile-by-tile into an L1-sized scratch owned by each
  // reduction block, so workers never share tiles.
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        std::vector<double> tile(
            dense_cost == nullptr ? std::min(n, kCostStreamTileCols) : 0);
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          if (ur == 0.0) continue;
          if (dense_cost != nullptr) {
            s += ur * simd::Dot3(dense_cost->data().data() + r * n,
                                 kdata + r * n, vdata, n);
            continue;
          }
          double row_sum = 0.0;
          for (size_t c0 = 0; c0 < n; c0 += tile.size()) {
            const size_t c1 = std::min(n, c0 + tile.size());
            cost.Fill(r, c0, c1, tile.data());
            row_sum += simd::Dot3(tile.data(), kdata + r * n + c0, vdata + c0,
                                  c1 - c0);
          }
          s += ur * row_sum;
        }
        return s;
      },
      pool_);
}

// ---------------------------------------------------------------- Sparse --

template <typename T>
SparseKernel<T>::SparseKernel(const SparseMatrix& kernel, size_t num_threads,
                              ThreadPool* pool)
    : SparseKernel(std::make_shared<const Storage>(kernel), num_threads,
                   pool) {}

template <typename T>
SparseKernel<T>::SparseKernel(std::shared_ptr<const Storage> storage,
                              size_t num_threads, ThreadPool* pool)
    : storage_(std::move(storage)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
SparseKernel<T> SparseKernel<T>::FromCost(const CostProvider& cost,
                                          double epsilon, double cutoff,
                                          size_t num_threads,
                                          ThreadPool* pool) {
  assert(epsilon > 0.0);
  return SparseKernel(SparseMatrix::GibbsKernel(cost, epsilon, cutoff),
                      num_threads, pool);
}

template <typename T>
SparseKernel<T> SparseKernel<T>::FromCost(const Matrix& cost, double epsilon,
                                          double cutoff, size_t num_threads,
                                          ThreadPool* pool) {
  return FromCost(MatrixCostProvider(cost), epsilon, cutoff, num_threads,
                  pool);
}

template <typename T>
void SparseKernel<T>::Apply(const Vector& v, Vector& y) const {
  const Storage& s = *storage_;
  const size_t m = s.rows;
  assert(v.size() == s.cols);
  if (y.size() != m) y = Vector(m);
  const double* vdata = v.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = s.row_ptr[r];
          y[r] = simd::GatherDot(s.values.data() + k0, s.col_index.data() + k0,
                                 vdata, s.row_ptr[r + 1] - k0);
        }
      },
      GrainForWork(s.nnz() / (m == 0 ? 1 : m)), pool_);
}

template <typename T>
void SparseKernel<T>::ApplyTranspose(const Vector& u, Vector& y) const {
  const Storage& s = *storage_;
  const size_t n = s.cols;
  assert(u.size() == s.rows);
  if (y.size() != n) y = Vector(n);
  const double* udata = u.begin();
  // Gather over the CSC mirror: each output y[c] is owned by one worker
  // and reduced over its column's entries in ascending-row order. At f64
  // the reduction is the sequential mul+add chain the dense ApplyTranspose
  // applies, so at cutoff zero sparse and dense transpose-applies are
  // bit-identical; at f32 it is lane-parallel (simd::GatherDotColumn).
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
          const size_t k0 = s.col_ptr[c];
          y[c] = simd::GatherDotColumn(s.csc_values.data() + k0,
                                       s.csc_row_index.data() + k0, udata,
                                       s.col_ptr[c + 1] - k0);
        }
      },
      GrainForWork(s.nnz() / (n == 0 ? 1 : n)), pool_);
}

template <typename T>
Matrix SparseKernel<T>::ScaleToPlan(const Vector& u, const Vector& v) const {
  const Storage& s = *storage_;
  assert(u.size() == s.rows && v.size() == s.cols);
  Matrix plan(s.rows, s.cols, 0.0);
  ParallelFor(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          for (size_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
            const size_t c = s.col_index[k];
            plan(r, c) = (ur * static_cast<double>(s.values[k])) * v[c];
          }
        }
      },
      GrainForWork(s.nnz() / (s.rows == 0 ? 1 : s.rows)), pool_);
  return plan;
}

template <typename T>
SparseMatrix SparseKernel<T>::ScaleToPlanSparse(const Vector& u,
                                                const Vector& v) const {
  const Storage& s = *storage_;
  assert(u.size() == s.rows && v.size() == s.cols);
  std::vector<double> out(s.nnz());
  ParallelFor(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = s.row_ptr[r];
          simd::GatherScaledHadamard(u[r], s.values.data() + k0,
                                     s.col_index.data() + k0, v.begin(),
                                     out.data() + k0, s.row_ptr[r + 1] - k0);
        }
      },
      GrainForWork(s.nnz() / (s.rows == 0 ? 1 : s.rows)), pool_);
  return SparseMatrix::FromParts(s.rows, s.cols, s.row_ptr, s.col_index,
                                 std::move(out));
}

template <typename T>
double SparseKernel<T>::SupportTransportCost(
    const std::vector<double>& support_costs, const Vector& u,
    const Vector& v) const {
  const Storage& s = *storage_;
  assert(support_costs.size() == s.nnz());
  assert(u.size() == s.rows && v.size() == s.cols);
  return BlockedReduce(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        double sum = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          if (ur == 0.0) continue;
          const size_t k0 = s.row_ptr[r];
          sum += ur * simd::GatherDot3(support_costs.data() + k0,
                                       s.values.data() + k0,
                                       s.col_index.data() + k0, v.begin(),
                                       s.row_ptr[r + 1] - k0);
        }
        return sum;
      },
      pool_);
}

template <typename T>
double SparseKernel<T>::TransportCost(const CostProvider& cost,
                                      const Vector& u, const Vector& v) const {
  const Storage& s = *storage_;
  assert(cost.rows() == s.rows && cost.cols() == s.cols);
  assert(u.size() == s.rows && v.size() == s.cols);
  // O(nnz) cost evaluations: the provider is asked only for the kernel's
  // support. Each reduction block owns a max-row-nnz scratch for the
  // gathered cost entries.
  return BlockedReduce(
      s.rows, threads_,
      [&](size_t r0, size_t r1) {
        std::vector<double> crow(s.max_row_nnz);
        double sum = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          if (ur == 0.0) continue;
          const size_t k0 = s.row_ptr[r];
          const size_t len = s.row_ptr[r + 1] - k0;
          cost.Gather(r, s.col_index.data() + k0, len, crow.data());
          sum += ur * simd::GatherDot3(crow.data(), s.values.data() + k0,
                                       s.col_index.data() + k0, v.begin(),
                                       len);
        }
        return sum;
      },
      pool_);
}

template struct SparseStorage<double>;
template struct SparseStorage<float>;
template class DenseKernel<double>;
template class DenseKernel<float>;
template class SparseKernel<double>;
template class SparseKernel<float>;

}  // namespace otclean::linalg
