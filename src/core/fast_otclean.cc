#include "core/fast_otclean.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/hash.h"
#include "core/fault_injector.h"
#include "core/solve_cache.h"
#include "linalg/simd.h"
#include "linalg/simd_exp.h"
#include "linalg/thread_pool.h"
#include "ot/kernel_factory.h"

namespace otclean::core {

namespace {

/// The repair's one kernel, built ONCE per repair through ot::MakeKernel —
/// cost and ε are invariant across the outer loop, so each outer step only
/// reruns the (warm-started) scaling loop through ot::RunEngine. In
/// log-domain mode the potentials threaded through the outer loop are
/// LOG-potentials; this struct holds what the outer loop alone needs from
/// them — ⟨C, π⟩ and the final plan.
///
/// The truncated paths are cost-free in the O(rows×cols) sense: the
/// kernel is built by streaming the CostProvider tile-by-tile, and every
/// ⟨C, π⟩ evaluation reads C gathered once at the kernel's support
/// (KernelBuild::support_costs) — the dense cost matrix is materialized
/// exclusively for the dense linear path (the dense log kernel streams the
/// provider straight into L = −C/ε).
struct OuterLoopKernel {
  ot::KernelBuild build;
  /// Borrowed provider, for the dense log path's streamed ⟨C, π⟩.
  const linalg::CostProvider* cost;

  /// `cache` (nullable) with an invalid `key` is a silent no-op. A hit
  /// adopts the cached storages — the same bytes the miss built, hence
  /// bit-identical arithmetic; a miss builds and publishes them.
  OuterLoopKernel(const linalg::CostProvider& cost_view,
                  const ot::KernelSpec& spec, SolveCache* cache,
                  const SolveCacheKey& key)
      : build(ot::MakeKernel(cost_view, spec, cache, key)), cost(&cost_view) {}

  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), build.kernel);
  }

  /// ⟨C, π⟩ at the current potentials: the cached O(nnz) support costs on
  /// the sparse paths, the streamed provider on the dense log path, the
  /// materialized cost rows on the dense linear path (the provider is
  /// function-backed, so MakeKernel materialized them).
  double TransportCost(const linalg::Vector& u, const linalg::Vector& v) const {
    return Visit([&](const auto& k) {
      using K = std::decay_t<decltype(k)>;
      if constexpr (ot::kIsSparseKernel<K>) {
        return k.SupportTransportCost(*build.support_costs, u, v);
      } else if constexpr (ot::kIsLogKernel<K>) {
        return k.TransportCost(*cost, u, v);
      } else {
        return k.TransportCost(*build.dense_cost, u, v);
      }
    });
  }

  /// Materializes the final plan from the converged potentials and stores
  /// ⟨C, π⟩ in `transport_cost`. The sparse paths stay CSR end to end —
  /// TransportPlan keeps the CSR backing, so no dense rows×cols plan is
  /// ever allocated on a truncated solve, log-domain included. The
  /// materialized dense cost is dropped once ⟨C, π⟩ is taken, before the
  /// plan is allocated, so a dense linear repair never holds cost, kernel
  /// and plan at once (the solve cache may still hold its own copy).
  ot::TransportPlan MaterializePlan(const prob::Domain& dom,
                                    const std::vector<size_t>& cells,
                                    const linalg::Vector& u,
                                    const linalg::Vector& v,
                                    double& transport_cost) {
    transport_cost = TransportCost(u, v);
    build.dense_cost.reset();
    return Visit([&](const auto& k) {
      if constexpr (ot::kIsSparseKernel<std::decay_t<decltype(k)>>) {
        return ot::TransportPlan(dom, cells, cells, k.ScaleToPlanSparse(u, v));
      } else {
        return ot::TransportPlan(dom, cells, cells, k.ScaleToPlan(u, v));
      }
    });
  }
};

/// The kernel a FastOTClean repair iterates on.
ot::KernelSpec FastKernelSpec(const FastOtCleanOptions& options,
                              linalg::ThreadPool* pool) {
  ot::KernelSpec spec;
  spec.epsilon = options.epsilon;
  spec.sparse = options.kernel_truncation > 0.0;
  spec.cutoff = options.kernel_truncation;
  spec.log_domain = options.log_domain;
  spec.precision = options.precision;
  spec.num_threads = options.num_threads;
  spec.pool = pool;
  spec.gather_support_costs = true;
  return spec;
}

/// The relaxed inner-solve options of a repair.
ot::SinkhornOptions InnerSolveOptions(const FastOtCleanOptions& options) {
  ot::SinkhornOptions sink;
  sink.epsilon = options.epsilon;
  sink.lambda = options.lambda;
  sink.relaxed = true;
  sink.max_iterations = options.max_sinkhorn_iterations;
  sink.tolerance = options.sinkhorn_tolerance;
  sink.log_domain = options.log_domain;
  sink.num_threads = options.num_threads;
  sink.precision = options.precision;
  sink.cancel_token = options.cancel_token;
  sink.deadline = options.deadline;
  sink.solve_cache = options.solve_cache;
  return sink;
}

/// FaultSite::kAlloc checkpoint: models the outer-loop kernel allocation
/// failing. Thrown rather than returned so the unwind path — cache pins
/// released, pool and caller state intact — is exercised exactly as a real
/// std::bad_alloc from the kernel storages would be; the repair boundary
/// (core/repair.cc) converts it to kResourceExhausted.
void MaybeInjectAllocFailure(FaultInjector* injector) {
  if (injector != nullptr && injector->ShouldFire(FaultSite::kAlloc)) {
    throw std::bad_alloc();
  }
}

/// FaultSite::kKernelNan: a cost view that poisons *every* entry with NaN,
/// modelling a kernel build whose arithmetic blew up wholesale. Installed
/// *after* ValidateFiniteCosts, so the NaN reaches the kernel build the way
/// a runtime numeric blow-up would instead of being rejected at the door.
/// (A single poisoned cell would not do: the scaling loop's per-iteration
/// clamping quarantines an isolated NaN by zeroing its row, and the solve
/// limps to a wrong-but-finite answer — the failure under test is the
/// deterministic endpoint where the plan loses all mass.) AsMatrix() stays
/// null so no dense fast path can bypass the poison.
class NanPoisonedCostView final : public linalg::CostProvider {
 public:
  explicit NanPoisonedCostView(const linalg::CostProvider& inner)
      : inner_(inner) {}

  size_t rows() const override { return inner_.rows(); }
  size_t cols() const override { return inner_.cols(); }

  double At(size_t, size_t) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }

  void Fill(size_t, size_t c0, size_t c1, double* out) const override {
    for (size_t k = 0; k < c1 - c0; ++k) {
      out[k] = std::numeric_limits<double>::quiet_NaN();
    }
  }

  void Gather(size_t, const size_t*, size_t n, double* out) const override {
    for (size_t k = 0; k < n; ++k) {
      out[k] = std::numeric_limits<double>::quiet_NaN();
    }
  }

 private:
  const linalg::CostProvider& inner_;
};

/// Stable identity of a FastOTClean solve's restricted cost stream. The
/// cost fingerprint alone is not enough: the kernel's values depend on
/// which tuples the active-domain restriction decodes at each row and
/// column, so the domain shape and the active cell list are folded in.
/// This combined fingerprint keys the outer kernel in the solve cache, so
/// repairs of the same table share one cached kernel. 0 when the cost is
/// unfingerprintable (caching off).
uint64_t FastCostFingerprint(const ot::CostFunction& cost,
                             const prob::Domain& dom,
                             const std::vector<size_t>& cells) {
  const uint64_t fp = cost.Fingerprint();
  if (fp == 0) return 0;
  uint64_t h = HashMix(kHashSeed, 0xFA57u);
  h = HashMix(h, fp);
  h = HashMix(h, dom.num_attrs());
  for (size_t c : dom.cardinalities()) h = HashMix(h, c);
  h = HashMix(h, cells.size());
  for (size_t c : cells) h = HashMix(h, c);
  return h == 0 ? 1 : h;
}

/// Writes a marginal over `cells` into `out`, a distribution over the whole
/// domain that is zero elsewhere.
void ExpandToDomain(const std::vector<size_t>& cells,
                    const linalg::Vector& mass, prob::JointDistribution& out) {
  std::fill(out.probs().begin(), out.probs().end(), 0.0);
  for (size_t i = 0; i < cells.size(); ++i) out[cells[i]] = mass[i];
}

/// Algorithm 2's alternating loop, for one constraint or many: step A
/// solves the relaxed OT problem against the current target Q on the
/// repair's one kernel, step B re-projects the plan's target marginal onto
/// the CI set by the closed-form projection (prob::MultiCiProjection's
/// cyclic sweeps; with one constraint, the rank-one KL-NMF of each slice).
/// The plan's rows and columns are both supp(P_D), where the projection
/// keeps Q. One prob::CiProjector serves every projection of the repair,
/// and every per-step distribution lives in a buffer allocated once.
/// `where` names the public entry point in errors.
Result<FastOtCleanResult> RunOuterLoop(const prob::JointDistribution& p_data,
                                       const std::vector<prob::CiSpec>& cis,
                                       const ot::CostFunction& cost,
                                       const FastOtCleanOptions& options,
                                       Rng& rng, const char* where) {
  const std::string name(where);
  const prob::Domain& dom = p_data.domain();
  if (dom.TotalSize() == 0) {
    return Status::InvalidArgument(name + ": empty domain");
  }
  if (cis.empty()) {
    return Status::InvalidArgument(name + ": no constraints");
  }
  if (std::fabs(p_data.Mass() - 1.0) > 1e-6) {
    return Status::InvalidArgument(name + ": p_data must be normalized");
  }
  ot::SinkhornOptions sink = InnerSolveOptions(options);
  OTCLEAN_RETURN_NOT_OK(ot::ValidateSinkhornOptions(where, sink));
  if (options.max_outer_iterations == 0) {
    return Status::InvalidArgument(name +
                                   ": max_outer_iterations must be > 0");
  }

  // Active-domain restriction (Section 5, default optimization 1) of the
  // plan's rows and columns alike.
  std::vector<size_t> cells;
  for (size_t i = 0; i < p_data.size(); ++i) {
    if (p_data[i] > 0.0) cells.push_back(i);
  }
  if (cells.empty()) {
    return Status::InvalidArgument(name + ": p_data carries no mass");
  }

  linalg::Vector p(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) p[i] = p_data[cells[i]];

  const ot::FunctionCostProvider cost_view(dom, cells, cells, cost);
  // The same finite-cost guard RunSinkhorn/RunSinkhornSparse apply: a NaN
  // or ±inf from a user cost function would otherwise be silently
  // truncated away (NaN >= cutoff is false) or flushed to 0 by the log
  // kernels — and NaN kernel entries void the SIMD max-reduction
  // contract. A linear kernel also rejects costs whose e^{−C/ε} overflows
  // its storage. One extra streaming pass per repair; the iterations
  // dominate.
  OTCLEAN_RETURN_NOT_OK(ot::ValidateFiniteCosts(where, cost_view, &sink));
  OTCLEAN_RETURN_NOT_OK(CheckStop(options.cancel_token, options.deadline, where));

  // kKernelNan fires here — past validation, so the NaN reaches the kernel
  // build exactly like a runtime numeric blow-up would. A poisoned solve
  // bypasses the cache entirely (fast_fp stays 0 below): a poisoned kernel
  // must never be published under the clean cost's key.
  const bool poison_kernel =
      options.fault_injector != nullptr &&
      options.fault_injector->ShouldFire(FaultSite::kKernelNan);
  const NanPoisonedCostView poisoned_view(cost_view);
  const linalg::CostProvider& build_view =
      poison_kernel ? static_cast<const linalg::CostProvider&>(poisoned_view)
                    : static_cast<const linalg::CostProvider&>(cost_view);

  // Initial target distribution Q (Section 5, default optimization 2): the
  // CI projection of P_D, or of a random distribution (a feasible start).
  prob::CiProjector projector(dom, cis);
  prob::JointDistribution q = p_data;
  if (!options.nmf_init) {
    for (size_t i = 0; i < q.size(); ++i) q[i] = rng.NextDouble();
    q.Normalize();
  }
  projector.Project(q.probs());

  // One worker pool for the whole repair: every Sinkhorn iteration of
  // every outer step dispatches on it, so workers start once per repair.
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);

  sink.cache_cost_fingerprint =
      options.solve_cache != nullptr && !poison_kernel
          ? FastCostFingerprint(cost, dom, cells)
          : 0;
  const ot::KernelSpec spec = FastKernelSpec(options, pool);
  const SolveCacheKey cache_key = ot::KernelCacheKey(
      sink.cache_cost_fingerprint, cells.size(), cells.size(), spec);
  MaybeInjectAllocFailure(options.fault_injector);
  OuterLoopKernel kernel(build_view, spec, options.solve_cache, cache_key);
  // Truncation must not strand source mass: every active-domain row needs
  // a surviving kernel entry. (Columns may legitimately go empty — the
  // relaxed target marginal simply never reaches them.)
  OTCLEAN_RETURN_NOT_OK(
      ot::CheckKernelSupport(kernel.build.kernel, p, /*q=*/nullptr, where));

  FastOtCleanResult result;
  result.kernel_nnz = std::visit([](const auto& k) { return k.nnz(); },
                                 kernel.build.kernel);
  if (options.solve_cache != nullptr && cache_key.valid()) {
    result.cache_kernel_hits = kernel.build.cache_hit ? 1 : 0;
    result.cache_kernel_misses = kernel.build.cache_hit ? 0 : 1;
  }
  // The first solve starts cold; every later one from the previous step.
  linalg::Vector warm_u, warm_v;
  // Per-step buffers: Q at the plan's columns, the plan's column marginal,
  // and that marginal over the whole domain, projected in place.
  linalg::Vector q_cols(cells.size());
  linalg::Vector target_mass(cells.size());
  prob::JointDistribution q_proj(dom);

  for (size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    OTCLEAN_RETURN_NOT_OK(
        CheckStop(options.cancel_token, options.deadline, where));
    // --- Outer step A: transport plan against the current Q (Sinkhorn). ---
    for (size_t j = 0; j < cells.size(); ++j) q_cols[j] = q[cells[j]];
    const linalg::Vector* wu =
        (options.warm_start && warm_u.size() == p.size()) ? &warm_u : nullptr;
    const linalg::Vector* wv =
        (options.warm_start && warm_v.size() == q_cols.size()) ? &warm_v
                                                               : nullptr;
    OTCLEAN_ASSIGN_OR_RETURN(
        ot::SinkhornScaling sr,
        ot::RunEngine(kernel.build.kernel, p, q_cols, sink, wu, wv));
    warm_u = std::move(sr.u);
    warm_v = std::move(sr.v);
    result.total_sinkhorn_iterations += sr.iterations;
    result.objective_trace.push_back(kernel.TransportCost(warm_u, warm_v));

    // --- Outer step B: re-project the plan's target marginal onto the CI
    // set (Algorithm 2 lines 8–13). ---
    // Column marginal of the plan without materializing it, from the last
    // sweep's Kᵀu: (Kᵀu) ∘ v linearly, e^{LSE + lv} in log mode (exact 0
    // where either factor is −inf).
    if (spec.log_domain) {
      for (size_t j = 0; j < target_mass.size(); ++j) {
        target_mass[j] = linalg::simd::PolyExp(sr.ktu[j] + warm_v[j]);
      }
    } else {
      linalg::simd::Hadamard(sr.ktu.begin(), warm_v.begin(),
                             target_mass.begin(), target_mass.size());
    }
    const double total = target_mass.Sum();
    if (total <= 0.0) {
      return Status::Internal(name + ": plan lost all mass");
    }
    target_mass /= total;
    ExpandToDomain(cells, target_mass, q_proj);
    projector.Project(q_proj.probs());

    // Converged only when both loops are: a small ΔQ after inexact inner
    // sweeps (cold-started ones especially) can be a stall, not a solution.
    const double delta = q.TotalVariation(q_proj);
    std::swap(q.probs(), q_proj.probs());
    result.outer_iterations = outer + 1;
    if (delta <= options.outer_tolerance && sr.converged) {
      result.converged = true;
      break;
    }
  }

  result.plan = kernel.MaterializePlan(dom, cells, warm_u, warm_v,
                                       result.transport_cost);
  result.target_cmi = projector.MaxCmi(q.probs());
  result.target = std::move(q);
  return result;
}

}  // namespace

Result<FastOtCleanResult> FastOtClean(const prob::JointDistribution& p_data,
                                      const prob::CiSpec& ci,
                                      const ot::CostFunction& cost,
                                      const FastOtCleanOptions& options,
                                      Rng& rng) {
  return RunOuterLoop(p_data, {ci}, cost, options, rng, "FastOtClean");
}

Result<FastOtCleanResult> FastOtCleanMulti(
    const prob::JointDistribution& p_data,
    const std::vector<prob::CiSpec>& cis, const ot::CostFunction& cost,
    const FastOtCleanOptions& options, Rng& rng) {
  return RunOuterLoop(p_data, cis, cost, options, rng, "FastOtCleanMulti");
}

}  // namespace otclean::core
