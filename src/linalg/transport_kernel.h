#ifndef OTCLEAN_LINALG_TRANSPORT_KERNEL_H_
#define OTCLEAN_LINALG_TRANSPORT_KERNEL_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "linalg/cost_provider.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace otclean::linalg {

class ThreadPool;

/// Storage-agnostic view of a Gibbs kernel K = e^{−C/ε}, exposing the
/// primitives the Sinkhorn scaling loop needs. The solver engine in
/// ot/sinkhorn.cc is written once against this interface; dense and
/// CSR-sparse (truncated-kernel) storage, at either storage precision,
/// plug in underneath.
///
/// All primitives are multi-threaded over row (or column) blocks.
/// `num_threads` is fixed at construction: 0 = hardware concurrency,
/// 1 = serial. Results are bit-compatible across thread counts — outputs
/// are either written to disjoint index ranges or reduced over blocks
/// fixed by the kernel's shape, whose partial sums are combined in block
/// order (see parallel_for.h).
///
/// Inner loops run on the runtime-dispatched SIMD primitives of
/// linalg/simd.h. The SIMD layer's own determinism contract composes with
/// the threading one: for a fixed instruction set, pooled and inline runs
/// at any thread count are bit-identical. Dense and cutoff-zero sparse f64
/// kernels share one Kᵀu accumulation recipe in ApplyTranspose, and in
/// UpdateRowsApplyTranspose on a single-block dense kernel (below
/// kMinParallelWork nonzeros); a multi-block dense sweep sums its per-block
/// Kᵀu partials in block order instead, which differs only by rounding.
///
/// `pool`, when non-null, is a persistent worker pool (thread_pool.h) the
/// primitives dispatch on; without one they run their chunks inline. The
/// chunk decomposition is the same either way, so pooled results stay
/// bit-identical. The pool is borrowed, not owned: it must outlive the
/// kernel. Solvers create one pool per solve and reuse it across every
/// Sinkhorn iteration and outer step.
class TransportKernel {
 public:
  virtual ~TransportKernel() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;
  /// Structural nonzeros of the kernel (rows·cols for dense storage).
  virtual size_t nnz() const = 0;
  /// Resolved worker count used by the primitives (>= 1).
  virtual size_t num_threads() const = 0;

  /// y = K·v (the Sinkhorn row update's denominator). Resizes y.
  virtual void Apply(const Vector& v, Vector& y) const = 0;
  /// y = Kᵀ·u (the column update's denominator). Resizes y.
  virtual void ApplyTranspose(const Vector& u, Vector& y) const = 0;
  /// One linear Sinkhorn row half-update and the transpose product after
  /// it — the whole kernel-side work of a sweep:
  ///
  ///   next_u = simd::ScalingUpdate(marginal, K·v, exponent, u)
  ///   ktu    = Kᵀ·next_u
  ///
  /// Returns ScalingUpdate's residual. `scratch` is work space, resized as
  /// needed; passing the same one every sweep keeps the loop free of
  /// allocations. `next_u` must not alias `u`. Resizes next_u and ktu.
  /// This default runs Apply, the update and ApplyTranspose in turn (the
  /// CSR kernels use it); the dense kernel reads each row once.
  virtual double UpdateRowsApplyTranspose(const Vector& marginal,
                                          double exponent, const Vector& v,
                                          const Vector& u, Vector& next_u,
                                          Vector& ktu, Vector& scratch) const;
  /// The scaled plan π = diag(u)·K·diag(v), materialized densely.
  virtual Matrix ScaleToPlan(const Vector& u, const Vector& v) const = 0;
  /// ⟨C, π⟩ = Σ_{(i,j) in support} C_ij·u_i·K_ij·v_j over the kernel's
  /// support, without materializing π. The cost is *streamed* from the
  /// provider (tile- or support-wise); no dense rows×cols cost is needed.
  virtual double TransportCost(const CostProvider& cost, const Vector& u,
                               const Vector& v) const = 0;
  /// Convenience overload for an in-memory dense cost. Deprecated on the
  /// sparse kernel, where it forces callers that only have the kernel's
  /// support to materialize a rows×cols matrix — pass a CostProvider
  /// (e.g. ot::FunctionCostProvider) instead. Kept as a thin wrapper over
  /// the provider overload via MatrixCostProvider.
  double TransportCost(const Matrix& cost, const Vector& u,
                       const Vector& v) const {
    return TransportCost(MatrixCostProvider(cost), u, v);
  }
};

// ------------------------------------------------------------- storages --
//
// Kernel storages are templated over the STORED scalar T ∈ {double, float}
// (linalg/precision.h). A float storage is always built by NARROWING an
// already-built f64 one: values round once to float (round-to-nearest,
// relative error ≤ 2^-24) and, for sparse storage, the kept-set is decided
// in DOUBLE before narrowing — so the f32 and f64 kernels of one (cost, ε,
// cutoff) share a sparsity pattern, and support checks and plan structures
// carry over unchanged. Storages are immutable once built and held through
// shared_ptr, so many kernel objects (and core::SolveCache) can view one.

/// Row-major float matrix: the f32 tier's dense storage. Mirrors Matrix's
/// read accessors so the kernel templates read either the same way.
class MatrixF32 {
 public:
  /// Narrows a built f64 matrix.
  explicit MatrixF32(const Matrix& m);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  const std::vector<float>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// Rows per block of the dense fused sweep (UpdateRowsApplyTranspose) on
/// a rows×cols kernel — a function of the shape alone, never of the
/// thread count. Blocks hold about kMinParallelWork entries (so a kernel
/// below that is one block) split evenly over the rows, and at least
/// kMinFusedBlockRows rows, which caps the per-block Kᵀu partials at
/// 1/kMinFusedBlockRows of the kernel's entries.
inline constexpr size_t kMinFusedBlockRows = 16;
size_t FusedSweepBlockRows(size_t rows, size_t cols);

/// Dense row-major storage of K = e^{−C/ε} or L = −C/ε at scalar T.
template <typename T>
using DenseStorage =
    std::conditional_t<std::is_same_v<T, float>, MatrixF32, Matrix>;

/// The structure of a CSR kernel plus its CSC mirror: column c's entries
/// live at [col_ptr[c], col_ptr[c+1]) of the mirror, sorted by ascending
/// row. With the mirror, every transpose-side primitive is a gather over
/// disjoint outputs that accumulates each column's entries in
/// ascending-row order regardless of threading — deterministic, never a
/// racy scatter.
struct SparsePattern {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<size_t> row_ptr;
  std::vector<size_t> col_index;
  std::vector<size_t> col_ptr;
  std::vector<size_t> csc_row_index;
  /// Longest stored CSR row — sizes the per-block scratch of primitives
  /// that gather one row's worth of streamed data.
  size_t max_row_nnz = 0;

  size_t nnz() const { return col_index.size(); }

  /// C at every stored entry, aligned with the CSR values — O(nnz) memory,
  /// one streaming pass over the provider.
  std::vector<double> GatherSupportCosts(const CostProvider& cost) const;
};

/// An immutable CSR kernel at scalar T with its CSC mirror — everything a
/// sparse kernel object needs beyond threading config, so a repeated
/// (cost, ε, truncation) never re-streams costs or rebuilds the mirror.
/// The linear and log-domain sparse kernels use the same storage (the
/// values hold K or L respectively).
template <typename T>
struct SparseStorage : SparsePattern {
  /// Copies the structure of a built f64 CSR matrix, builds the mirror,
  /// and narrows the values to T.
  explicit SparseStorage(const SparseMatrix& csr);

  std::vector<T> values;      ///< CSR order
  std::vector<T> csc_values;  ///< CSC-mirror order

  /// Approximate heap footprint (CSR + mirror).
  size_t MemoryBytes() const {
    return (row_ptr.size() + col_index.size() + col_ptr.size() +
            csc_row_index.size()) *
               sizeof(size_t) +
           (values.size() + csc_values.size()) * sizeof(T);
  }
};

// --------------------------------------------------------------- kernels --

/// Dense kernel: K stored row-major at scalar T, every reduction
/// accumulated in double.
template <typename T>
class DenseKernel final : public TransportKernel {
 public:
  using Storage = DenseStorage<T>;

  /// Wraps an already-built kernel matrix (e.g. cost.GibbsKernel(eps)).
  explicit DenseKernel(Storage kernel, size_t num_threads = 0,
                       ThreadPool* pool = nullptr);

  /// Shares an immutable storage built elsewhere (no copy, no rebuild).
  explicit DenseKernel(std::shared_ptr<const Storage> kernel,
                       size_t num_threads = 0, ThreadPool* pool = nullptr);

  /// Builds K = e^{−C/ε} from a cost matrix (in f64, row-chunked on the
  /// pool, then narrowed).
  static DenseKernel FromCost(const Matrix& cost, double epsilon,
                              size_t num_threads = 0,
                              ThreadPool* pool = nullptr);

  size_t rows() const override { return kernel_->rows(); }
  size_t cols() const override { return kernel_->cols(); }
  size_t nnz() const override { return kernel_->size(); }
  size_t num_threads() const override { return threads_; }

  void Apply(const Vector& v, Vector& y) const override;
  void ApplyTranspose(const Vector& u, Vector& y) const override;
  /// Fused over fixed row blocks: each block computes K·v for its rows,
  /// writes their scalings, and adds next_u_r·K_r into its own Kᵀu
  /// partial while the rows are still in cache; the partials are then
  /// summed in block order. The blocks depend only on the kernel's shape
  /// (FusedSweepBlockRows), so the result is bit-identical at any thread
  /// count and pooled or inline. A single-block kernel computes exactly
  /// the bits of Apply + ScalingUpdate + ApplyTranspose.
  double UpdateRowsApplyTranspose(const Vector& marginal, double exponent,
                                  const Vector& v, const Vector& u,
                                  Vector& next_u, Vector& ktu,
                                  Vector& scratch) const override;
  Matrix ScaleToPlan(const Vector& u, const Vector& v) const override;
  using TransportKernel::TransportCost;
  double TransportCost(const CostProvider& cost, const Vector& u,
                       const Vector& v) const override;

  const Storage& kernel() const { return *kernel_; }
  /// The underlying storage handle, for sharing (core::SolveCache).
  const std::shared_ptr<const Storage>& shared_storage() const {
    return kernel_;
  }

 private:
  std::shared_ptr<const Storage> kernel_;
  size_t threads_;
  ThreadPool* pool_;
};

/// CSR kernel for truncated Gibbs kernels (Section 6.5), stored at scalar
/// T with a CSC mirror so ApplyTranspose is a deterministic gather over
/// disjoint outputs.
template <typename T>
class SparseKernel final : public TransportKernel {
 public:
  using Storage = SparseStorage<T>;

  /// Adopts a built f64 CSR kernel (narrowed to T).
  explicit SparseKernel(const SparseMatrix& kernel, size_t num_threads = 0,
                        ThreadPool* pool = nullptr);

  /// Shares an immutable storage built elsewhere (no copy, no rebuild —
  /// the CSC mirror comes along for free).
  explicit SparseKernel(std::shared_ptr<const Storage> storage,
                        size_t num_threads = 0, ThreadPool* pool = nullptr);

  /// Builds the truncated kernel, with the cost *streamed* from a provider
  /// tile-by-tile — the dense rows×cols cost matrix is never materialized,
  /// so a truncated solve's memory is O(nnz) end to end. Entries of
  /// e^{−C/ε} below `cutoff` are dropped (decided in double); cutoff 0
  /// keeps every entry and, at f64, matches the dense kernel exactly.
  static SparseKernel FromCost(const CostProvider& cost, double epsilon,
                               double cutoff, size_t num_threads = 0,
                               ThreadPool* pool = nullptr);
  static SparseKernel FromCost(const Matrix& cost, double epsilon,
                               double cutoff, size_t num_threads = 0,
                               ThreadPool* pool = nullptr);

  size_t rows() const override { return storage_->rows; }
  size_t cols() const override { return storage_->cols; }
  size_t nnz() const override { return storage_->nnz(); }
  size_t num_threads() const override { return threads_; }

  void Apply(const Vector& v, Vector& y) const override;
  void ApplyTranspose(const Vector& u, Vector& y) const override;
  Matrix ScaleToPlan(const Vector& u, const Vector& v) const override;
  using TransportKernel::TransportCost;
  double TransportCost(const CostProvider& cost, const Vector& u,
                       const Vector& v) const override;

  /// The scaled plan in CSR form (double values), inheriting the kernel's
  /// sparsity pattern.
  SparseMatrix ScaleToPlanSparse(const Vector& u, const Vector& v) const;

  /// Streams the provider once and returns C at every stored entry
  /// (SparsePattern::GatherSupportCosts). Callers that evaluate the
  /// transport cost repeatedly against one cost (FastOTClean's outer loop)
  /// gather once and pass the cache to SupportTransportCost instead of
  /// re-evaluating the cost function every iteration.
  std::vector<double> GatherSupportCosts(const CostProvider& cost) const {
    return storage_->GatherSupportCosts(cost);
  }

  /// TransportCost from a GatherSupportCosts cache; bit-identical to the
  /// streaming CostProvider overload.
  double SupportTransportCost(const std::vector<double>& support_costs,
                              const Vector& u, const Vector& v) const;

  /// The underlying storage handle, for sharing (core::SolveCache).
  const std::shared_ptr<const Storage>& shared_storage() const {
    return storage_;
  }

 private:
  std::shared_ptr<const Storage> storage_;
  size_t threads_;
  ThreadPool* pool_;
};

extern template struct SparseStorage<double>;
extern template struct SparseStorage<float>;
extern template class DenseKernel<double>;
extern template class DenseKernel<float>;
extern template class SparseKernel<double>;
extern template class SparseKernel<float>;

/// The concrete kernel names, one alias per (storage, precision).
using DenseTransportKernel = DenseKernel<double>;
using SparseTransportKernel = SparseKernel<double>;
using DenseTransportKernelF32 = DenseKernel<float>;
using SparseTransportKernelF32 = SparseKernel<float>;

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_TRANSPORT_KERNEL_H_
