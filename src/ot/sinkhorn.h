#ifndef OTCLEAN_OT_SINKHORN_H_
#define OTCLEAN_OT_SINKHORN_H_

#include <cstdint>

#include "common/cancellation.h"
#include "common/result.h"
#include "linalg/log_transport_kernel.h"
#include "linalg/matrix.h"
#include "linalg/precision.h"
#include "linalg/sparse_matrix.h"
#include "linalg/transport_kernel.h"
#include "linalg/vector.h"

namespace otclean::core {
class SolveCache;
}  // namespace otclean::core

namespace otclean::ot {

/// Parameters for entropic / relaxed optimal transport.
///
/// Convention: we minimize  ⟨C, π⟩ − ε·H(π) (+ λ·KL marginal penalties in
/// relaxed mode). The paper writes the entropic weight as 1/ρ and the kernel
/// as K = e^{−C/ρ}; our `epsilon` is the paper's ρ in that kernel formula
/// (i.e. K = e^{−C/ε}), so *smaller* epsilon means sharper plans.
struct SinkhornOptions {
  double epsilon = 0.05;
  /// Marginal-relaxation coefficient λ (only used when `relaxed`). Larger λ
  /// means marginals are matched more strictly; the relaxed update exponent
  /// is λ/(λ+ε) — the paper's ρλ/(ρλ+1) with ρ = 1/ε (Eq. 5).
  double lambda = 50.0;
  /// false: classic Sinkhorn with hard marginals (Algorithm 1).
  /// true: relaxed OT updates of Frogner et al. (Eq. 5).
  bool relaxed = false;
  /// Run the iterations on log-potentials over a LogTransportKernel
  /// (streamed log-sum-exp) instead of the scaling vectors themselves.
  /// Immune to under/overflow for very small ε or costs with a huge
  /// dynamic range (e.g. frozen-attribute penalties). Supported on both
  /// the dense path (RunSinkhorn) and the truncated sparse path
  /// (RunSinkhornSparse, where the kernel stores −C/ε at the kept
  /// entries and the solve stays O(nnz)). Each iteration costs an exp
  /// per kernel entry (SIMD'd; see bench_log_kernel) versus the linear
  /// domain's multiply — prefer it when ε is small enough for e^{−C/ε}
  /// to leave the double range, or when convergence stalls from clamped
  /// scalings.
  bool log_domain = false;
  size_t max_iterations = 20000;
  /// Convergence threshold on one scale-free residual, the same in every
  /// domain, precision and storage: the max relative change of the scaling
  /// vectors between iterations, max_i |u'_i − u_i| / u_i (log-domain
  /// mode: the max absolute change of the log-potentials, its first-order
  /// equal). Rescaling the marginals leaves it unchanged, and a scaling
  /// switching between zero and nonzero (−inf and finite) reads as an
  /// infinite change.
  double tolerance = 1e-10;
  /// Worker threads for the kernel primitives (row-blocked). 0 = hardware
  /// concurrency, 1 = serial. Results are bit-compatible across thread
  /// counts (disjoint output blocks; fixed-block-ordered reductions).
  size_t num_threads = 0;
  /// Optional externally owned worker pool (linalg/thread_pool.h) the
  /// kernel primitives dispatch on; must outlive the solve. When null and
  /// the resolved `num_threads` exceeds 1, the solver creates its own pool
  /// for the duration of the run, so threads are spawned once per solve
  /// instead of once per primitive call. Callers running many solves —
  /// sequential (FastOTClean's outer loop) or *concurrent* (the
  /// RepairScheduler's executors) — pass one shared pool: ThreadPool
  /// accepts any number of concurrent dispatchers, and per-solve chunk
  /// decompositions never depend on what else shares the pool.
  /// Pooled and serial runs are bit-identical. Honored by RunSinkhorn /
  /// RunSinkhornSparse, which build the kernel; RunSinkhornScaling ignores
  /// it — there the pool binds at kernel construction, so pass it to the
  /// TransportKernel constructor instead.
  linalg::ThreadPool* thread_pool = nullptr;
  /// Optional cross-request solve cache (core/solve_cache.h). When set
  /// together with a nonzero `cache_cost_fingerprint`, the solver reuses
  /// a previously built Gibbs kernel for the same (fingerprint, dims, ε,
  /// cutoff, domain, SIMD tier) — bit-identical to rebuilding, since the
  /// hit hands back the very storage the miss built — and publishes the
  /// kernel it builds on a miss. Borrowed; must outlive the solve.
  /// Honored by RunSinkhorn / RunSinkhornSparse (the kernel-building
  /// entry points); RunSinkhorn(Log)Scaling takes a prebuilt kernel and
  /// ignores it.
  core::SolveCache* solve_cache = nullptr;
  /// Stable content identity of this solve's cost argument — e.g.
  /// CostFunction::Fingerprint() mixed (common/hash.h) with the identity
  /// of whatever produced the matrix from it (domain shape, active
  /// cells). 0 — the default — means "unfingerprintable" and bypasses
  /// the cache entirely. The caller owns correctness here: the
  /// fingerprint must cover everything the cost *values* depend on, or
  /// different costs alias one kernel.
  uint64_t cache_cost_fingerprint = 0;
  /// Storage precision of the Gibbs kernel the solve iterates on.
  /// kFloat32 halves kernel memory traffic — the cost-per-iteration
  /// bottleneck on large domains — while every reduction still
  /// accumulates in double (linalg/precision.h; the kept-set of a
  /// truncated kernel is decided in double, so f32 and f64 share a
  /// sparsity pattern). Results are bit-identical across thread counts,
  /// pools, and cache hit/miss *per* (SIMD tier, precision), but differ
  /// from the f64 tier's by the kernel rounding (relative entry error
  /// ≤ 2⁻²⁴). Support costs and all outputs stay double.
  linalg::Precision precision = linalg::Precision::kFloat64;
  /// Optional cooperative cancellation (common/cancellation.h; borrowed,
  /// must outlive the solve). Checked once per engine-loop iteration and —
  /// through the ThreadPool stop flag — between
  /// chunk executions of pooled kernel dispatches, so a fired token drains
  /// even a large dispatch promptly. A firing aborts the solve with
  /// kCancelled; checks never alter what an unaborted solve computes.
  const CancellationToken* cancel_token = nullptr;
  /// Optional monotonic wall deadline, polled at the same iteration
  /// granularity; expiry aborts with kDeadlineExceeded. Infinite by
  /// default. Compose caller and scheduler budgets with Deadline::Earliest.
  Deadline deadline;
};

/// Output of a Sinkhorn run.
struct SinkhornResult {
  linalg::Matrix plan;  ///< π = diag(u)·K·diag(v).
  linalg::Vector u;     ///< row scaling (exposable for warm starts).
  linalg::Vector v;     ///< column scaling.
  size_t iterations = 0;
  bool converged = false;
  double transport_cost = 0.0;  ///< ⟨C, π⟩.
};

/// Scaling vectors + convergence stats of a run of the shared engine loop,
/// before any plan materialization.
struct SinkhornScaling {
  linalg::Vector u;
  linalg::Vector v;
  /// Kᵀu at the returned u — the denominator of the last column update,
  /// so the plan's column marginal is ktu ∘ v without another kernel pass.
  /// RunEngine over a log kernel returns SinkhornLogScaling::lse_cols here.
  linalg::Vector ktu;
  size_t iterations = 0;
  bool converged = false;
};

/// The single linear-domain engine loop, usable with any TransportKernel
/// (dense, CSR-sparse, or future storages). `warm_u` / `warm_v`, when
/// non-null, initialize the scaling vectors (their sizes MUST match the
/// kernel — a mismatch is an InvalidArgument, never a silent cold start);
/// when null they start at all-ones. Both RunSinkhorn and
/// RunSinkhornSparse delegate here — call it directly when you build the
/// kernel once and reuse it across solves (e.g. warm-started outer
/// loops). The loop stops once no scaling entry changed by more than
/// `options.tolerance` relative to its previous value (`converged`), or
/// after `options.max_iterations` sweeps — a warm-started outer loop may
/// run a few sweeps per call and read `converged` to learn whether they
/// settled. Errors on marginal / kernel dimension mismatch, on negative or
/// non-finite marginal entries, and on options ValidateSinkhornOptions
/// rejects. The loop runs under linalg::ScopedFlushSubnormals (fp_env.h),
/// on the calling thread and on any pool workers it dispatches to; the
/// caller's FP mode is restored on return.
Result<SinkhornScaling> RunSinkhornScaling(
    const linalg::TransportKernel& kernel, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    const linalg::Vector* warm_u = nullptr,
    const linalg::Vector* warm_v = nullptr);

/// Log-potentials + convergence stats of a log-domain engine run, before
/// any plan materialization. −inf marks "no mass" (the linear u_i = 0).
struct SinkhornLogScaling {
  linalg::Vector lu;
  linalg::Vector lv;
  /// The column log-sum-exp LSE_i(lu_i + L_ij) at the returned lu — the
  /// log twin of SinkhornScaling::ktu; the column marginal is
  /// e^{lse_cols + lv}.
  linalg::Vector lse_cols;
  size_t iterations = 0;
  bool converged = false;
};

/// The log-domain twin of RunSinkhornScaling: the same RunScalingLoop
/// engine iterated on log-potentials over a LogTransportKernel (dense or
/// CSR — every storage optimization of the linear kernels applies).
/// `warm_lu` / `warm_lv` are LOG-potentials (sizes must match; −inf
/// entries allowed); null starts from all-zeros (= all-ones scalings).
/// Convergence measures the max absolute change of the log-potentials,
/// to first order RunSinkhornScaling's relative scaling change, so one
/// tolerance stops both domains at the same sweep. A potential flipping
/// between finite and −inf counts as an infinite change — the loop
/// cannot report convergence across such a flip.
/// Errors, and flushes subnormals, exactly as RunSinkhornScaling does.
Result<SinkhornLogScaling> RunSinkhornLogScaling(
    const linalg::LogTransportKernel& kernel, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    const linalg::Vector* warm_lu = nullptr,
    const linalg::Vector* warm_lv = nullptr);

/// Runs Sinkhorn matrix scaling between marginals `p` (rows) and `q`
/// (columns) under cost matrix `cost`, on a dense kernel (log-domain mode
/// iterates a DenseLogTransportKernel instead; the result's u/v are the
/// linear-domain scalings e^{lu}/e^{lv} either way).
///
/// `warm_u` / `warm_v`, when non-null, initialize the scaling vectors
/// (the paper's warm-start optimization, Section 5) and must match the
/// problem's dimensions — a mismatch is an InvalidArgument, never a
/// silent cold start; null starts from all-ones. Inputs are validated:
/// negative or non-finite marginal entries and non-finite cost entries
/// are rejected with an indexed error message.
Result<SinkhornResult> RunSinkhorn(const linalg::Matrix& cost,
                                   const linalg::Vector& p,
                                   const linalg::Vector& q,
                                   const SinkhornOptions& options,
                                   const linalg::Vector* warm_u = nullptr,
                                   const linalg::Vector* warm_v = nullptr);

/// Entropy H(π) = −Σ π log π of a plan (0·log 0 := 0).
double PlanEntropy(const linalg::Matrix& plan);

/// Output of a sparse-kernel Sinkhorn run; the plan inherits the truncated
/// kernel's sparsity pattern.
struct SparseSinkhornResult {
  linalg::SparseMatrix plan;
  linalg::Vector u;
  linalg::Vector v;
  size_t iterations = 0;
  bool converged = false;
  double transport_cost = 0.0;
};

/// Sinkhorn on a *truncated* Gibbs kernel: entries of K = e^{−C/ε} below
/// `kernel_cutoff` are dropped before iterating — the sparse transport-plan
/// representation of Section 6.5. With cutoff 0 this matches RunSinkhorn
/// exactly while storing only structural nonzeros. Errors (InvalidArgument)
/// rather than producing a deficient plan when the cutoff is too
/// aggressive: every row with p > 0 — and, in hard-marginal (non-relaxed)
/// mode, every column with q > 0 — must keep at least one kernel entry,
/// otherwise that marginal mass would be stranded. (Relaxed mode only
/// soft-matches the target marginal, so unreachable columns are
/// legitimately under-served there, not an error — the same policy
/// FastOTClean applies.)
///
/// With `options.log_domain`, the truncated solve iterates log-potentials
/// over a SparseLogTransportKernel storing −C/ε at exactly the kept
/// entries (same sparsity pattern and stranded-mass guard as the linear
/// kernel) — still O(nnz) memory end to end. Truncation bounds the
/// kernel's dynamic range from below but does nothing for *convergence*
/// at small ε, where the linear iteration's scalings under/overflow —
/// combine truncation with log_domain for sharp, sparse, stable solves.
///
/// The CostProvider overload is the O(nnz)-memory entry point: the cost is
/// streamed into the kernel build and the final ⟨C, π⟩, so no rows×cols
/// array ever exists. The Matrix overload delegates to it through a
/// MatrixCostProvider view and produces bit-identical results — use it
/// only when a dense cost is already in hand.
Result<SparseSinkhornResult> RunSinkhornSparse(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    double kernel_cutoff, const linalg::Vector* warm_u = nullptr,
    const linalg::Vector* warm_v = nullptr);

Result<SparseSinkhornResult> RunSinkhornSparse(
    const linalg::Matrix& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    double kernel_cutoff, const linalg::Vector* warm_u = nullptr,
    const linalg::Vector* warm_v = nullptr);

/// Rejects (InvalidArgument) options no solve can run on: a non-finite or
/// non-positive ε, a non-finite or non-positive λ in relaxed mode, and
/// max_iterations == 0 (a 0-iteration run would return the unsolved
/// cold-start scalings). Every Sinkhorn entry point applies it, and
/// FastOTClean applies it to the inner-solve options it derives.
Status ValidateSinkhornOptions(const char* where,
                               const SinkhornOptions& options);

/// Rejects NaN/±inf cost entries with a row/col-indexed InvalidArgument
/// (finite-cost validation of RunSinkhorn/RunSinkhornSparse, exposed for
/// callers like FastOTClean that build kernels from a CostProvider
/// directly — a non-finite entry would otherwise be silently truncated
/// away or flushed to 0 by the kernels). Streams tile-by-tile, O(tile)
/// memory; zero-copy when the provider has a dense backing.
///
/// With `kernel` (the options of the solve the costs will build a kernel
/// for) in the linear domain, it also rejects entries whose Gibbs weight
/// e^{−C/ε} overflows the kernel's storage type, i.e. C < −ε·ln(max of
/// f64 or f32): an infinite kernel entry is clamped away by the scaling
/// update and the solve returns ok on a plan that ignores those moves.
/// The log domain stores −C/ε and accepts such costs.
Status ValidateFiniteCosts(const char* where, const linalg::CostProvider& cost,
                           const SinkhornOptions* kernel = nullptr);

/// Verifies a truncated kernel can carry the marginals: every row i with
/// p[i] > 0 (and, when `q` is non-null, every column j with q[j] > 0) must
/// hold at least one stored entry. Returns InvalidArgument naming the
/// first offending row/column — the fix is a smaller truncation cutoff.
/// Takes the sparsity pattern alone: the linear/log and f64/f32 kernels of
/// one (cost, ε, cutoff) share it (the kept-set is decided in double).
Status CheckTruncatedKernelSupport(const linalg::SparsePattern& kernel,
                                   const linalg::Vector* p,
                                   const linalg::Vector* q,
                                   const char* where);

}  // namespace otclean::ot

#endif  // OTCLEAN_OT_SINKHORN_H_
