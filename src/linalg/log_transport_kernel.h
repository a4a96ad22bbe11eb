#ifndef OTCLEAN_LINALG_LOG_TRANSPORT_KERNEL_H_
#define OTCLEAN_LINALG_LOG_TRANSPORT_KERNEL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/cost_provider.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/transport_kernel.h"
#include "linalg/vector.h"

namespace otclean::linalg {

class ThreadPool;

/// The log-domain counterpart of TransportKernel: a storage-agnostic view
/// of the LOG Gibbs kernel L = −C/ε, exposing the two primitives the
/// log-domain Sinkhorn loop needs —
///
///   LogApply:          out_i = log Σ_j e^{L_ij + lv_j}   (= log (K·v)_i)
///   LogApplyTranspose: out_j = log Σ_i e^{L_ij + lu_i}   (= log (Kᵀ·u)_j)
///
/// — each computed as a *streamed log-sum-exp*: one max pass, one shifted
/// exp-sum pass, never an intermediate e^x array. Where the linear-domain
/// kernel stores K = e^{−C/ε} (and under/overflows at small ε), the log
/// kernel stores L itself, so iterating on log-potentials stays exact for
/// any ε the cost's dynamic range allows. Built from a CostProvider:
/// the dense backing materializes only L (the same rows×cols the dense
/// linear kernel pays for K) and the CSR backing stores L at the
/// truncation's kept entries — a truncated log-domain solve is O(nnz)
/// end to end, the raw cost matrix never exists in either case.
///
/// Conventions shared with the solver: a log-potential of −inf means "no
/// mass" (the linear domain's u_i = 0); rows/columns whose every
/// contribution is −inf (or, sparse, with no stored entries) produce
/// −inf, and ScaleToPlan maps −inf to exactly 0.
///
/// Threading and determinism mirror TransportKernel: primitives run
/// row-blocked (column-blocked for the transpose) on ParallelFor with
/// owned output ranges, dispatching on the same borrowed ThreadPool, so
/// pooled and inline runs at any thread count are bit-identical. The
/// SIMD layer's log-domain contract (simd.h) adds: max passes are
/// bit-identical across every tier, exp-sums differ only by lane-sum
/// rounding, and every tier evaluates one shared e^x polynomial
/// (simd_exp.h).
class LogTransportKernel {
 public:
  virtual ~LogTransportKernel() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;
  /// Structural nonzeros of the log-kernel (rows·cols for dense storage).
  virtual size_t nnz() const = 0;
  /// Resolved worker count used by the primitives (>= 1).
  virtual size_t num_threads() const = 0;

  /// out_i = LSE_j(L_ij + lv_j). Resizes out.
  virtual void LogApply(const Vector& lv, Vector& out) const = 0;
  /// out_j = LSE_i(L_ij + lu_i). Resizes out.
  virtual void LogApplyTranspose(const Vector& lu, Vector& out) const = 0;
  /// π_ij = e^{lu_i + L_ij + lv_j}, materialized densely; −inf potentials
  /// (and entries below the double range) give exactly 0.
  virtual Matrix ScaleToPlan(const Vector& lu, const Vector& lv) const = 0;
  /// ⟨C, π⟩ = Σ_{(i,j) in support} C_ij·e^{lu_i + L_ij + lv_j}, with the
  /// cost *streamed* from the provider — no dense rows×cols cost needed.
  virtual double TransportCost(const CostProvider& cost, const Vector& lu,
                               const Vector& lv) const = 0;
};

/// Dense row-major storage of L = −C/ε at scalar T; every LSE accumulates
/// in double.
template <typename T>
class DenseLogKernel final : public LogTransportKernel {
 public:
  using Storage = DenseStorage<T>;

  /// Wraps an already-built log-kernel matrix (entries −C/ε).
  explicit DenseLogKernel(Storage log_kernel, size_t num_threads = 0,
                          ThreadPool* pool = nullptr);

  /// Shares an immutable storage built elsewhere (no copy, no rebuild).
  explicit DenseLogKernel(std::shared_ptr<const Storage> log_kernel,
                          size_t num_threads = 0, ThreadPool* pool = nullptr);

  /// Builds L = −C/ε (in f64, then narrowed), streaming the provider
  /// tile-by-tile into L — the raw cost matrix is never materialized (only
  /// L is, it being the dense backing).
  static DenseLogKernel FromCost(const CostProvider& cost, double epsilon,
                                 size_t num_threads = 0,
                                 ThreadPool* pool = nullptr);
  static DenseLogKernel FromCost(const Matrix& cost, double epsilon,
                                 size_t num_threads = 0,
                                 ThreadPool* pool = nullptr);

  size_t rows() const override { return log_kernel_->rows(); }
  size_t cols() const override { return log_kernel_->cols(); }
  size_t nnz() const override { return log_kernel_->size(); }
  size_t num_threads() const override { return threads_; }

  void LogApply(const Vector& lv, Vector& out) const override;
  void LogApplyTranspose(const Vector& lu, Vector& out) const override;
  Matrix ScaleToPlan(const Vector& lu, const Vector& lv) const override;
  double TransportCost(const CostProvider& cost, const Vector& lu,
                       const Vector& lv) const override;

  const Storage& log_kernel() const { return *log_kernel_; }
  /// The underlying storage handle, for sharing (core::SolveCache).
  const std::shared_ptr<const Storage>& shared_storage() const {
    return log_kernel_;
  }

 private:
  std::shared_ptr<const Storage> log_kernel_;
  size_t threads_;
  ThreadPool* pool_;
};

/// CSR storage of L = −C/ε at a truncation's kept entries — the same
/// kept-set as the linear SparseKernel at the same cutoff
/// (SparseMatrix::LogGibbsKernel), so CheckTruncatedKernelSupport and the
/// plan's sparsity pattern carry over unchanged. Entries not stored are
/// −inf ("impossible move"), the log-domain analog of the linear kernel's
/// structural zeros. The storage's CSC mirror makes the transpose LSE a
/// deterministic gather.
template <typename T>
class SparseLogKernel final : public LogTransportKernel {
 public:
  using Storage = SparseStorage<T>;

  /// Adopts a built f64 CSR log-kernel (narrowed to T).
  explicit SparseLogKernel(const SparseMatrix& log_kernel,
                           size_t num_threads = 0,
                           ThreadPool* pool = nullptr);

  /// Shares an immutable storage built elsewhere (no copy, no rebuild —
  /// the CSC mirror comes along for free).
  explicit SparseLogKernel(std::shared_ptr<const Storage> storage,
                           size_t num_threads = 0, ThreadPool* pool = nullptr);

  /// Builds the truncated log-kernel from a streamed cost; `cutoff` is in
  /// *kernel* space exactly as for SparseKernel::FromCost (drop where
  /// e^{−C/ε} < cutoff, decided in double), cutoff 0 keeps every entry.
  static SparseLogKernel FromCost(const CostProvider& cost, double epsilon,
                                  double cutoff, size_t num_threads = 0,
                                  ThreadPool* pool = nullptr);
  static SparseLogKernel FromCost(const Matrix& cost, double epsilon,
                                  double cutoff, size_t num_threads = 0,
                                  ThreadPool* pool = nullptr);

  size_t rows() const override { return storage_->rows; }
  size_t cols() const override { return storage_->cols; }
  size_t nnz() const override { return storage_->nnz(); }
  size_t num_threads() const override { return threads_; }

  void LogApply(const Vector& lv, Vector& out) const override;
  void LogApplyTranspose(const Vector& lu, Vector& out) const override;
  Matrix ScaleToPlan(const Vector& lu, const Vector& lv) const override;
  double TransportCost(const CostProvider& cost, const Vector& lu,
                       const Vector& lv) const override;

  /// The scaled plan in CSR form, inheriting the kernel's sparsity
  /// pattern: values e^{lu_i + L_ik + lv_{col(k)}} (exact 0 below range).
  SparseMatrix ScaleToPlanSparse(const Vector& lu, const Vector& lv) const;

  /// C at every stored entry — the same O(nnz) outer-loop cache contract
  /// as SparseKernel::GatherSupportCosts.
  std::vector<double> GatherSupportCosts(const CostProvider& cost) const {
    return storage_->GatherSupportCosts(cost);
  }

  /// TransportCost from a GatherSupportCosts cache; bit-identical to the
  /// streaming CostProvider overload.
  double SupportTransportCost(const std::vector<double>& support_costs,
                              const Vector& lu, const Vector& lv) const;

  /// The underlying storage handle, for sharing (core::SolveCache).
  const std::shared_ptr<const Storage>& shared_storage() const {
    return storage_;
  }

 private:
  std::shared_ptr<const Storage> storage_;
  size_t threads_;
  ThreadPool* pool_;
};

extern template class DenseLogKernel<double>;
extern template class DenseLogKernel<float>;
extern template class SparseLogKernel<double>;
extern template class SparseLogKernel<float>;

/// The concrete log-kernel names, one alias per (storage, precision).
using DenseLogTransportKernel = DenseLogKernel<double>;
using SparseLogTransportKernel = SparseLogKernel<double>;
using DenseLogTransportKernelF32 = DenseLogKernel<float>;
using SparseLogTransportKernelF32 = SparseLogKernel<float>;

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_LOG_TRANSPORT_KERNEL_H_
