#ifndef OTCLEAN_LINALG_COST_PROVIDER_H_
#define OTCLEAN_LINALG_COST_PROVIDER_H_

#include <algorithm>
#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/parallel_for.h"

namespace otclean::linalg {

/// Columns per scratch tile when a streamed cost is consumed row-wise —
/// 8 KiB of doubles, comfortably L1-resident. Shared by every consumer
/// (kernel build, transport-cost reductions) so the tiling stays in sync.
inline constexpr size_t kCostStreamTileCols = 1024;

/// A read-only view of a rows×cols cost matrix that is *streamed*, never
/// required to exist in memory. The sparse (truncated-kernel) pipeline is
/// built entirely against this interface — `SparseMatrix::GibbsKernel`,
/// `SparseTransportKernel::FromCost`, and `TransportKernel::TransportCost`
/// pull cost entries tile-by-tile or at the kernel's support — so a
/// truncated solve allocates O(nnz) + O(tile) instead of the dense
/// rows×cols cost matrix (`ot::BuildCostMatrix` is just one client that
/// materializes the view).
///
/// Implementations must be thread-safe for concurrent const calls: the
/// kernel primitives invoke Fill/Gather/At from worker threads on disjoint
/// rows and output buffers.
class CostProvider {
 public:
  virtual ~CostProvider() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;

  /// Single entry C(row, col).
  virtual double At(size_t row, size_t col) const = 0;

  /// Writes C(row, c) for c in [c0, c1) into out[0 .. c1-c0) — the tile
  /// access used when every column of a row is needed (kernel build,
  /// dense transport cost).
  virtual void Fill(size_t row, size_t c0, size_t c1, double* out) const {
    for (size_t c = c0; c < c1; ++c) out[c - c0] = At(row, c);
  }

  /// Writes C(row, cols[k]) into out[k] for k in [0, n) — the
  /// sparse-support access used when only the kernel's stored columns of a
  /// row are needed (sparse transport cost).
  virtual void Gather(size_t row, const size_t* cols, size_t n,
                      double* out) const {
    for (size_t k = 0; k < n; ++k) out[k] = At(row, cols[k]);
  }

  /// The dense backing matrix when one exists — a zero-copy fast path for
  /// consumers that would otherwise Fill into a scratch tile. Null for
  /// genuinely streamed providers.
  virtual const Matrix* AsMatrix() const { return nullptr; }
};

/// CostProvider over an in-memory dense matrix (borrowed, not owned). The
/// adapter that keeps every Matrix-taking entry point working on the
/// provider-based pipeline.
class MatrixCostProvider final : public CostProvider {
 public:
  explicit MatrixCostProvider(const Matrix& matrix) : matrix_(&matrix) {}

  size_t rows() const override { return matrix_->rows(); }
  size_t cols() const override { return matrix_->cols(); }

  double At(size_t row, size_t col) const override {
    return (*matrix_)(row, col);
  }

  void Fill(size_t row, size_t c0, size_t c1, double* out) const override {
    const double* base = matrix_->data().data() + row * matrix_->cols();
    std::copy(base + c0, base + c1, out);
  }

  void Gather(size_t row, const size_t* cols, size_t n,
              double* out) const override {
    const double* base = matrix_->data().data() + row * matrix_->cols();
    for (size_t k = 0; k < n; ++k) out[k] = base[cols[k]];
  }

  const Matrix* AsMatrix() const override { return matrix_; }

 private:
  const Matrix* matrix_;
};

/// Materializes the view as a dense matrix — the one place the O(rows×cols)
/// allocation happens when a caller really wants it. Rows are filled in
/// row chunks on `pool` (borrowed; inline when null) over `num_threads`
/// (0 = hardware concurrency); each entry is written once, by one Fill,
/// so the result is the same at any thread count.
inline Matrix MaterializeCostMatrix(const CostProvider& cost,
                                    size_t num_threads = 1,
                                    ThreadPool* pool = nullptr) {
  const size_t n = cost.cols();
  Matrix out(cost.rows(), n);
  double* data = out.data().data();
  ParallelFor(
      cost.rows(), ResolveThreadCount(num_threads),
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) cost.Fill(r, 0, n, data + r * n);
      },
      GrainForWork(n), pool);
  return out;
}

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_COST_PROVIDER_H_
