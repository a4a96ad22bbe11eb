#ifndef OTCLEAN_CORE_FAST_OTCLEAN_H_
#define OTCLEAN_CORE_FAST_OTCLEAN_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "ot/cost.h"
#include "ot/plan.h"
#include "ot/sinkhorn.h"
#include "prob/independence.h"
#include "prob/joint.h"

namespace otclean::core {

class FaultInjector;
class SolveCache;

/// Options for FastOTClean (Algorithm 2) — the relaxed-OT + Sinkhorn +
/// KL-NMF alternating solver of Section 4.2, with the Section 5
/// optimizations.
struct FastOtCleanOptions {
  /// Entropic regularization ε (the kernel is K = e^{−C/ε}; smaller is
  /// sharper, cf. Fig. 1).
  double epsilon = 0.1;
  /// Marginal-relaxation coefficient λ of the relaxed OT objective (Eq. 11).
  double lambda = 50.0;
  /// Outer (Algorithm 2) steps before the run stops unconverged.
  size_t max_outer_iterations = 5000;
  /// Outer convergence threshold: total-variation change of Q.
  double outer_tolerance = 1e-8;
  /// Sinkhorn sweeps per outer step. Algorithm 2 alternates blocks, so
  /// by default each step runs a few warm-started sweeps against a target
  /// Q the next projection replaces anyway, not a full inner solve; ask
  /// for exact inner solves with a large budget and a tight tolerance
  /// (e.g. 5000 and 1e-9).
  size_t max_sinkhorn_iterations = 5;
  /// Inner stopping threshold on the scale-free change of the scalings
  /// (relative per entry linearly, absolute on log-potentials; see
  /// ot::SinkhornOptions::tolerance). A step whose sweeps end above it is
  /// an inexact inner solve, and the run cannot report `converged` until
  /// the last step's sweeps meet it.
  double sinkhorn_tolerance = 1e-6;
  /// Section 5: reuse scaling vectors across outer steps. Without it every
  /// step starts cold, so a few sweeps never meet `sinkhorn_tolerance` and
  /// the run ends at `max_outer_iterations`, unconverged — cold-started
  /// runs need an inner budget that solves each step on its own.
  bool warm_start = true;
  /// Section 5: initialize Q by the CI projection (NMF) of P_D instead of a
  /// random distribution. Either way the plan's rows and columns are the
  /// active domain supp(P_D): the CI projection keeps zero cells at zero,
  /// so from P_D the target never leaves it, and a random start's mass
  /// outside it is never reached by the plan.
  bool nmf_init = true;
  /// When > 0, run the inner Sinkhorn on a *sparse* truncated kernel:
  /// entries of K = e^{−C/ε} below this cutoff are dropped (the sparse
  /// transport-plan representation of Section 6.5). Cuts memory and time on
  /// plans where most moves are effectively forbidden; 0 keeps the dense
  /// kernel. The plan stays CSR end to end — `FastOtCleanResult::plan` is
  /// CSR-backed and repair sampling walks only the stored nonzeros. Errors
  /// (InvalidArgument) if the cutoff empties a kernel row that carries
  /// source mass, since that mass could never be transported.
  double kernel_truncation = 0.0;
  /// Run the inner Sinkhorn on log-potentials over a LogTransportKernel
  /// (streamed log-sum-exp) instead of linear scalings — stable at small
  /// ε or under huge-penalty costs where e^{−C/ε} leaves the double
  /// range. Composes with `kernel_truncation`: the truncated log kernel
  /// stores −C/ε at the kept entries and the solve stays O(nnz). Costs
  /// roughly one (SIMD'd) exp per kernel entry per iteration instead of
  /// a multiply.
  bool log_domain = false;
  /// Worker threads for the inner Sinkhorn kernels (row-blocked). 0 =
  /// hardware concurrency, 1 = serial; results are identical across thread
  /// counts.
  size_t num_threads = 0;
  /// Optional externally owned worker pool; must outlive the call. One
  /// pool may serve sequential solves *and* concurrent ones (the
  /// RepairScheduler runs every executor's repairs off a single shared
  /// pool) — each solve's chunk decomposition depends only on its own
  /// (n, num_threads, grain), so per-solve results are bit-identical no
  /// matter what else shares the pool. When null and the resolved
  /// `num_threads` exceeds 1, one pool is created per solve and reused by
  /// every Sinkhorn iteration and outer step (threads start once per
  /// repair, not once per kernel call). Pooled and serial results are
  /// bit-identical.
  linalg::ThreadPool* thread_pool = nullptr;
  /// Optional cross-request solve cache (core/solve_cache.h): a repeated
  /// (cost fingerprint, domain, active cells, ε, truncation, domain mode)
  /// reuses the previously built kernel storage — bit-identical to
  /// rebuilding — instead of re-streaming costs. Requires the cost to be
  /// fingerprintable (CostFunction::Fingerprint() != 0); unfingerprintable
  /// costs silently bypass the cache. Borrowed; must outlive the call.
  /// The RepairScheduler injects its per-batch cache here — scheduled
  /// jobs must leave it null, exactly like `thread_pool`.
  SolveCache* solve_cache = nullptr;
  /// Storage precision of the inner Sinkhorn kernel
  /// (ot::SinkhornOptions::precision): kFloat32 halves kernel memory
  /// traffic; all accumulation stays double, outputs stay double, and
  /// the truncated kept-set is decided in double so support checks and
  /// plan structure match the f64 tier exactly.
  linalg::Precision precision = linalg::Precision::kFloat64;
  /// Optional cooperative cancellation (common/cancellation.h; borrowed,
  /// must outlive the call). Checked at each outer step and forwarded into
  /// every inner Sinkhorn solve (per-iteration checks there), so a fired
  /// token aborts the repair with kCancelled within one engine iteration.
  /// Scheduled jobs must leave it null — the RepairScheduler owns one
  /// token per job and injects it here, exactly like `thread_pool`.
  const CancellationToken* cancel_token = nullptr;
  /// Optional monotonic wall deadline, polled at the same granularity;
  /// expiry aborts with kDeadlineExceeded. Infinite by default.
  Deadline deadline;
  /// Optional fault-injection harness (core/fault_injector.h; borrowed).
  /// Consulted only at its named sites — null (the default) costs nothing
  /// and is the production configuration.
  FaultInjector* fault_injector = nullptr;
};

/// Outcome of a FastOTClean run.
struct FastOtCleanResult {
  /// The probabilistic data cleaner π(v, v′). CSR-backed (plan.IsSparse())
  /// when `kernel_truncation > 0`, dense otherwise.
  ot::TransportPlan plan;
  /// Final CI-consistent target distribution Q over the full domain.
  prob::JointDistribution target;
  /// Relaxed objective value per outer iteration (transport cost term) —
  /// the convergence trace of Fig. 10b.
  std::vector<double> objective_trace;
  size_t outer_iterations = 0;
  /// Total inner Sinkhorn iterations across all outer steps (Fig. 11b).
  size_t total_sinkhorn_iterations = 0;
  /// Both loops met their tolerances: the last outer step moved Q by at
  /// most `outer_tolerance` AND its inner sweeps met `sinkhorn_tolerance`.
  /// A small ΔQ alone proves nothing when the inner solves stop short.
  bool converged = false;
  /// CMI of the target w.r.t. the constraint (should be ~0).
  double target_cmi = 0.0;
  /// Final transport cost ⟨C, π⟩.
  double transport_cost = 0.0;
  /// Nonzeros of the (possibly truncated) kernel used by the last inner
  /// solve; rows×cols of the plan when the dense path ran.
  size_t kernel_nnz = 0;
  /// Solve-cache activity of this run (all zero when no cache was
  /// configured or the cost was unfingerprintable). A run performs at
  /// most one kernel lookup, so hits + misses ≤ 1; kept as counts so
  /// callers (RepairScheduler, reports) can sum across runs.
  size_t cache_kernel_hits = 0;
  size_t cache_kernel_misses = 0;
};

/// FastOTClean: computes a probabilistic data cleaner for `p_data` under
/// the CI spec `ci` (positions within p_data's domain) and cost `cost`.
///
/// `p_data` must be a normalized distribution (typically the empirical
/// distribution of the dataset, restricted to the constraint attributes
/// under the saturation optimization).
Result<FastOtCleanResult> FastOtClean(const prob::JointDistribution& p_data,
                                      const prob::CiSpec& ci,
                                      const ot::CostFunction& cost,
                                      const FastOtCleanOptions& options,
                                      Rng& rng);

/// Multi-constraint FastOTClean (the paper's stated extension): enforces
/// *all* the given CI specs simultaneously by replacing the inner rank-one
/// projection with cyclic I-projections onto each constraint (IPF-style).
/// `target_cmi` in the result is the largest residual CMI across the
/// constraints. With one spec it is FastOtClean bit for bit.
Result<FastOtCleanResult> FastOtCleanMulti(
    const prob::JointDistribution& p_data,
    const std::vector<prob::CiSpec>& cis, const ot::CostFunction& cost,
    const FastOtCleanOptions& options, Rng& rng);

}  // namespace otclean::core

#endif  // OTCLEAN_CORE_FAST_OTCLEAN_H_
