#include "core/fast_otclean.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/hash.h"
#include "core/fault_injector.h"
#include "core/solve_cache.h"
#include "linalg/simd_exp.h"
#include "linalg/thread_pool.h"
#include "nmf/kl_nmf.h"
#include "ot/kernel_factory.h"

namespace otclean::core {

namespace {

/// The repair's one kernel, built ONCE per repair through ot::MakeKernel —
/// cost and ε are invariant across the outer loop, so each outer step only
/// reruns the (warm-started) scaling loop. In log-domain mode the
/// "potentials" threaded through the outer loop (and its warm starts) are
/// LOG-potentials; the struct is the only place that needs to know.
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

  bool log_domain() const {
    return Visit([](const auto& k) {
      return ot::kIsLogKernel<std::decay_t<decltype(k)>>;
    });
  }

  size_t nnz() const {
    return Visit([](const auto& k) { return k.nnz(); });
  }

  /// Truncation must not strand source mass: every active-domain row needs
  /// at least one surviving kernel entry. (Columns may legitimately go
  /// empty — the relaxed target marginal simply never reaches them.) All
  /// four sparse kernels of one (cost, ε, cutoff) share the kept-set.
  Status CheckSupport(const linalg::Vector& p, const char* where) const {
    return Visit([&](const auto& k) {
      if constexpr (ot::kIsSparseKernel<std::decay_t<decltype(k)>>) {
        return ot::CheckTruncatedKernelSupport(*k.shared_storage(), &p,
                                               /*q=*/nullptr, where);
      } else {
        return Status::OK();
      }
    });
  }

  /// One inner Sinkhorn solve against the current column marginal. The
  /// returned (and warm-start) u/v vectors are linear scalings on the
  /// linear paths and log-potentials on the log paths — opaque to the
  /// outer loop, which only threads them back in.
  Result<ot::SinkhornScaling> Solve(const linalg::Vector& p,
                                    const linalg::Vector& q_cols,
                                    const ot::SinkhornOptions& sink,
                                    const linalg::Vector* warm_u,
                                    const linalg::Vector* warm_v) const {
    return Visit([&](const auto& k) -> Result<ot::SinkhornScaling> {
      if constexpr (ot::kIsLogKernel<std::decay_t<decltype(k)>>) {
        OTCLEAN_ASSIGN_OR_RETURN(
            ot::SinkhornLogScaling s,
            ot::RunSinkhornLogScaling(k, p, q_cols, sink, warm_u, warm_v));
        return ot::SinkhornScaling{std::move(s.lu), std::move(s.lv),
                                   s.iterations, s.converged};
      } else {
        return ot::RunSinkhornScaling(k, p, q_cols, sink, warm_u, warm_v);
      }
    });
  }

  /// Column marginal of the plan at the current potentials, without
  /// materializing it: (Kᵀu) ∘ v linearly, e^{logsumexp + lv} in log mode
  /// (exact 0 where either factor is −inf). `scratch` is reused across
  /// outer steps.
  void ColumnMarginal(const linalg::Vector& u, const linalg::Vector& v,
                      linalg::Vector& scratch,
                      linalg::Vector& target_mass) const {
    Visit([&](const auto& k) {
      if constexpr (ot::kIsLogKernel<std::decay_t<decltype(k)>>) {
        k.LogApplyTranspose(u, scratch);
        if (target_mass.size() != scratch.size()) {
          target_mass = linalg::Vector(scratch.size());
        }
        for (size_t j = 0; j < scratch.size(); ++j) {
          target_mass[j] = linalg::simd::PolyExp(scratch[j] + v[j]);
        }
      } else {
        k.ApplyTranspose(u, scratch);
        target_mass = scratch.CwiseProduct(v);
      }
    });
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
  /// ever allocated on a truncated solve, log-domain included.
  ot::TransportPlan MaterializePlan(const prob::Domain& dom,
                                    const std::vector<size_t>& row_cells,
                                    const std::vector<size_t>& col_cells,
                                    const linalg::Vector& u,
                                    const linalg::Vector& v,
                                    double& transport_cost) const {
    transport_cost = TransportCost(u, v);
    return Visit([&](const auto& k) {
      if constexpr (ot::kIsSparseKernel<std::decay_t<decltype(k)>>) {
        return ot::TransportPlan(dom, row_cells, col_cells,
                                 k.ScaleToPlanSparse(u, v));
      } else {
        return ot::TransportPlan(dom, row_cells, col_cells,
                                 k.ScaleToPlan(u, v));
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
/// which tuples the active-domain restriction decodes at each row/column,
/// so the domain shape and both cell lists are folded in. This combined
/// fingerprint seeds both the outer kernel's cache key and (as
/// `cache_cost_fingerprint`) the ε-annealing stages' per-ε keys, so stage
/// kernels from different repairs of the same table share cache entries.
/// 0 when the cost is unfingerprintable (caching off).
uint64_t FastCostFingerprint(const ot::CostFunction& cost,
                             const prob::Domain& dom,
                             const std::vector<size_t>& row_cells,
                             const std::vector<size_t>& col_cells) {
  const uint64_t fp = cost.Fingerprint();
  if (fp == 0) return 0;
  uint64_t h = HashMix(kHashSeed, 0xFA57u);
  h = HashMix(h, fp);
  h = HashMix(h, dom.num_attrs());
  for (size_t c : dom.cardinalities()) h = HashMix(h, c);
  h = HashMix(h, row_cells.size());
  for (size_t c : row_cells) h = HashMix(h, c);
  h = HashMix(h, col_cells.size());
  for (size_t c : col_cells) h = HashMix(h, c);
  return h == 0 ? 1 : h;
}

/// The warm-start store speaks linear-domain potentials regardless of the
/// solve's domain mode (one canonical representation per key namespace);
/// the log paths lift on fetch and exponentiate on store.
void LiftWarmToLog(linalg::Vector& w) {
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = w[i] > 0.0 ? std::log(w[i])
                      : -std::numeric_limits<double>::infinity();
  }
}

linalg::Vector WarmToLinear(const linalg::Vector& w, bool log_domain) {
  if (!log_domain) return w;
  linalg::Vector out(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    out[i] = std::isfinite(w[i]) ? std::exp(w[i]) : 0.0;
  }
  return out;
}

/// ε-annealing for the first inner solve: when the schedule is enabled,
/// the caller's warm_start plumbing is on, and no (warmer) cached warm
/// start was fetched, runs the larger-ε stage sequence against the
/// *initial* column marginal and leaves the rescaled potentials in
/// warm_u/warm_v (lifted to log-potentials on the log paths, matching the
/// outer loop's representation). Later outer steps stay warm off the
/// previous step as usual. Stage kernels share `options.solve_cache`
/// under per-ε keys seeded by `fast_fingerprint`.
Status MaybeAnnealFirstSolve(const linalg::CostProvider& cost_view,
                             const linalg::Vector& p,
                             const prob::JointDistribution& q,
                             const std::vector<size_t>& col_cells,
                             const FastOtCleanOptions& options,
                             const ot::SinkhornOptions& sink,
                             uint64_t fast_fingerprint, bool log_domain,
                             linalg::ThreadPool* pool, linalg::Vector& warm_u,
                             linalg::Vector& warm_v,
                             FastOtCleanResult& result) {
  if (!options.epsilon_schedule.enabled() || !options.warm_start ||
      result.cache_warm_started) {
    return Status::OK();
  }
  linalg::Vector q_cols(col_cells.size());
  for (size_t j = 0; j < col_cells.size(); ++j) q_cols[j] = q[col_cells[j]];
  ot::SinkhornOptions anneal = sink;
  anneal.epsilon_schedule = options.epsilon_schedule;
  anneal.solve_cache = options.solve_cache;
  anneal.cache_cost_fingerprint = fast_fingerprint;
  OTCLEAN_ASSIGN_OR_RETURN(
      ot::EpsilonAnnealWarmStart aw,
      ot::RunSinkhornAnnealed(cost_view, p, q_cols, anneal,
                              /*sparse=*/options.kernel_truncation > 0.0,
                              options.kernel_truncation, pool));
  warm_u = std::move(aw.u);
  warm_v = std::move(aw.v);
  if (log_domain) {
    LiftWarmToLog(warm_u);
    LiftWarmToLog(warm_v);
  }
  result.anneal_stages = std::move(aw.stages);
  return Status::OK();
}

/// Cross-request warm start (fetch side): seeds the outer loop's warm
/// vectors from the cache when enabled, sizes match, and the caller's own
/// warm_start plumbing will pick them up. Returns the stored cold
/// baseline via `cold_iterations`.
bool FetchCachedWarmStart(SolveCache* cache, const SolveCacheKey& key,
                          const FastOtCleanOptions& options, size_t rows,
                          size_t cols, bool log_domain, linalg::Vector& warm_u,
                          linalg::Vector& warm_v, size_t& cold_iterations) {
  if (cache == nullptr || !key.valid()) return false;
  if (!options.warm_start || !options.cache_warm_start) return false;
  auto stored = cache->FindWarmStart(key);
  if (!stored) return false;
  if (stored->u.size() != rows || stored->v.size() != cols) return false;
  warm_u = std::move(stored->u);
  warm_v = std::move(stored->v);
  if (log_domain) {
    LiftWarmToLog(warm_u);
    LiftWarmToLog(warm_v);
  }
  cold_iterations = stored->cold_iterations;
  return true;
}

/// Store side: persists the converged potentials (linear domain) and
/// credits iteration savings against the key's cold baseline.
void StoreCachedWarmStart(SolveCache* cache, const SolveCacheKey& key,
                          const FastOtCleanOptions& options, bool log_domain,
                          const linalg::Vector& warm_u,
                          const linalg::Vector& warm_v,
                          size_t cold_iterations, FastOtCleanResult& result) {
  if (cache == nullptr || !key.valid()) return;
  if (!options.warm_start || !options.cache_warm_start || !result.converged) {
    return;
  }
  cache->StoreWarmStart(key, WarmToLinear(warm_u, log_domain),
                        WarmToLinear(warm_v, log_domain),
                        result.total_sinkhorn_iterations);
  if (result.cache_warm_started &&
      cold_iterations > result.total_sinkhorn_iterations) {
    result.cache_warm_iterations_saved =
        cold_iterations - result.total_sinkhorn_iterations;
    cache->RecordWarmSavings(result.cache_warm_iterations_saved);
  }
}

/// Expands a marginal over `cells` into a dense distribution over `dom`.
prob::JointDistribution ExpandToDomain(const prob::Domain& dom,
                                       const std::vector<size_t>& cells,
                                       const linalg::Vector& mass) {
  prob::JointDistribution out(dom);
  for (size_t i = 0; i < cells.size(); ++i) out[cells[i]] = mass[i];
  return out;
}

/// CI projection computed by per-z-slice iterative Lee–Seung rank-one NMF,
/// used when options.iterative_nmf is set. Produces the same distribution
/// as prob::CiProjection at convergence.
prob::JointDistribution IterativeNmfProjection(
    const prob::JointDistribution& t, const prob::CiSpec& ci,
    size_t nmf_max_iterations, Rng& rng) {
  const prob::Domain& dom = t.domain();
  // Slice layout: for each z cell, matrix A_z of size d_X × d_Y where
  // (x, y) aggregates all cells with those X/Y/Z projections. For a
  // saturated constraint every cell maps uniquely to (x, y, z).
  const prob::Domain dom_x = dom.Project(ci.x);
  const prob::Domain dom_y = dom.Project(ci.y);
  const prob::Domain dom_z =
      ci.z.empty() ? prob::Domain::FromCardinalities({1}) : dom.Project(ci.z);
  const size_t dx = dom_x.TotalSize();
  const size_t dy = dom_y.TotalSize();
  const size_t dz = ci.z.empty() ? 1 : dom_z.TotalSize();

  // Aggregate P(x, y, z) and the conditional of any remaining attributes.
  std::vector<linalg::Matrix> slices(dz, linalg::Matrix(dx, dy, 0.0));
  for (size_t cell = 0; cell < t.size(); ++cell) {
    const double p = t[cell];
    if (p <= 0.0) continue;
    const size_t xi = dom.ProjectIndex(cell, ci.x);
    const size_t yi = dom.ProjectIndex(cell, ci.y);
    const size_t zi = ci.z.empty() ? 0 : dom.ProjectIndex(cell, ci.z);
    slices[zi](xi, yi) += p;
  }

  // Factorize each slice: A_z ≈ W_z · H_zᵀ (Algorithm 2 lines 8–12).
  std::vector<linalg::Matrix> approx(dz, linalg::Matrix(dx, dy, 0.0));
  nmf::KlNmfOptions nmf_opts;
  nmf_opts.rank = 1;
  nmf_opts.max_iterations = nmf_max_iterations;
  for (size_t zi = 0; zi < dz; ++zi) {
    if (slices[zi].Sum() <= 0.0) continue;
    auto r = nmf::KlNmf(slices[zi], nmf_opts, rng);
    if (r.ok()) {
      approx[zi] =
          linalg::Matrix::OuterProduct(r->w.Col(0), r->h.Row(0));
    } else {
      approx[zi] = slices[zi];
    }
  }

  // Reassemble q over the full domain, carrying P(rest | x,y,z) along.
  std::vector<size_t> xyz = ci.x;
  xyz.insert(xyz.end(), ci.y.begin(), ci.y.end());
  xyz.insert(xyz.end(), ci.z.begin(), ci.z.end());
  const prob::JointDistribution rest_given_xyz = t.ConditionalOn(xyz);
  prob::JointDistribution q(dom);
  for (size_t cell = 0; cell < q.size(); ++cell) {
    const size_t xi = dom.ProjectIndex(cell, ci.x);
    const size_t yi = dom.ProjectIndex(cell, ci.y);
    const size_t zi = ci.z.empty() ? 0 : dom.ProjectIndex(cell, ci.z);
    q[cell] = approx[zi](xi, yi) * rest_given_xyz[cell];
  }
  q.Normalize();
  return q;
}

}  // namespace

Result<FastOtCleanResult> FastOtClean(const prob::JointDistribution& p_data,
                                      const prob::CiSpec& ci,
                                      const ot::CostFunction& cost,
                                      const FastOtCleanOptions& options,
                                      Rng& rng) {
  if (!options.iterative_nmf) {
    // The closed-form single-constraint projection is the one-spec case of
    // the cyclic multi-constraint projection.
    return FastOtCleanMulti(p_data, {ci}, cost, options, rng);
  }
  const prob::Domain& dom = p_data.domain();
  if (dom.TotalSize() == 0) {
    return Status::InvalidArgument("FastOtClean: empty domain");
  }
  if (std::fabs(p_data.Mass() - 1.0) > 1e-6) {
    return Status::InvalidArgument("FastOtClean: p_data must be normalized");
  }
  if (options.ci_strength < 0.0 || options.ci_strength > 1.0) {
    return Status::InvalidArgument("FastOtClean: ci_strength must be in [0,1]");
  }
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("FastOtClean: epsilon must be positive");
  }
  if (options.max_outer_iterations == 0) {
    return Status::InvalidArgument(
        "FastOtClean: max_outer_iterations must be > 0");
  }

  // Active-domain restriction (Section 5, default optimization 1).
  std::vector<size_t> row_cells;
  for (size_t i = 0; i < p_data.size(); ++i) {
    if (p_data[i] > 0.0) row_cells.push_back(i);
  }
  if (row_cells.empty()) {
    return Status::InvalidArgument("FastOtClean: p_data carries no mass");
  }
  std::vector<size_t> col_cells;
  if (options.restrict_columns_to_active) {
    col_cells = row_cells;
  } else {
    col_cells.resize(dom.TotalSize());
    for (size_t i = 0; i < col_cells.size(); ++i) col_cells[i] = i;
  }

  linalg::Vector p(row_cells.size());
  for (size_t i = 0; i < row_cells.size(); ++i) p[i] = p_data[row_cells[i]];

  const ot::FunctionCostProvider cost_view(dom, row_cells, col_cells, cost);
  // The same finite-cost guard RunSinkhorn/RunSinkhornSparse apply: a NaN
  // or ±inf from a user cost function would otherwise be silently
  // truncated away (NaN >= cutoff is false) or flushed to 0 by the log
  // kernels — and NaN kernel entries void the SIMD max-reduction
  // contract. One extra streaming pass per repair; the iterations
  // dominate.
  OTCLEAN_RETURN_NOT_OK(ot::ValidateFiniteCosts("FastOtClean", cost_view));
  OTCLEAN_RETURN_NOT_OK(
      CheckStop(options.cancel_token, options.deadline, "FastOtClean"));

  // Fault sites, exactly as in FastOtCleanMulti below.
  const bool poison_kernel =
      options.fault_injector != nullptr &&
      options.fault_injector->ShouldFire(FaultSite::kKernelNan);
  const NanPoisonedCostView poisoned_view(cost_view);
  const linalg::CostProvider& build_view =
      poison_kernel ? static_cast<const linalg::CostProvider&>(poisoned_view)
                    : static_cast<const linalg::CostProvider&>(cost_view);

  // Initial target distribution Q (Section 5, default optimization 2).
  prob::JointDistribution q(dom);
  if (options.nmf_init) {
    q = prob::CiProjection(p_data, ci);
  } else {
    for (size_t i = 0; i < q.size(); ++i) q[i] = rng.NextDouble();
    q.Normalize();
    q = prob::CiProjection(q, ci);  // random but feasible start
  }

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

  // One worker pool for the whole repair: every Sinkhorn iteration of
  // every outer step dispatches on it, so workers start once per repair.
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);

  const uint64_t fast_fp =
      options.solve_cache != nullptr && !poison_kernel
          ? FastCostFingerprint(cost, dom, row_cells, col_cells)
          : 0;
  const ot::KernelSpec spec = FastKernelSpec(options, pool);
  const SolveCacheKey cache_key = ot::KernelCacheKey(
      fast_fp, row_cells.size(), col_cells.size(), spec);
  MaybeInjectAllocFailure(options.fault_injector);
  const OuterLoopKernel kernel_storage(build_view, spec, options.solve_cache,
                                       cache_key);
  OTCLEAN_RETURN_NOT_OK(kernel_storage.CheckSupport(p, "FastOtClean"));

  FastOtCleanResult result;
  result.kernel_nnz = kernel_storage.nnz();
  if (options.solve_cache != nullptr && cache_key.valid()) {
    result.cache_kernel_hits = kernel_storage.build.cache_hit ? 1 : 0;
    result.cache_kernel_misses = kernel_storage.build.cache_hit ? 0 : 1;
  }
  linalg::Vector warm_u, warm_v, ktu;
  size_t warm_cold_baseline = 0;
  result.cache_warm_started = FetchCachedWarmStart(
      options.solve_cache, cache_key, options, p.size(), col_cells.size(),
      kernel_storage.log_domain(), warm_u, warm_v, warm_cold_baseline);
  OTCLEAN_RETURN_NOT_OK(MaybeAnnealFirstSolve(
      build_view, p, q, col_cells, options, sink, fast_fp,
      kernel_storage.log_domain(), pool, warm_u, warm_v, result));

  for (size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    OTCLEAN_RETURN_NOT_OK(
        CheckStop(options.cancel_token, options.deadline, "FastOtClean"));
    // --- Outer step A: transport plan against the current Q (Sinkhorn). ---
    linalg::Vector q_cols(col_cells.size());
    for (size_t j = 0; j < col_cells.size(); ++j) q_cols[j] = q[col_cells[j]];

    const linalg::Vector* wu =
        (options.warm_start && warm_u.size() == p.size()) ? &warm_u : nullptr;
    const linalg::Vector* wv =
        (options.warm_start && warm_v.size() == q_cols.size()) ? &warm_v
                                                               : nullptr;
    OTCLEAN_ASSIGN_OR_RETURN(ot::SinkhornScaling sr,
                             kernel_storage.Solve(p, q_cols, sink, wu, wv));
    warm_u = std::move(sr.u);
    warm_v = std::move(sr.v);
    result.total_sinkhorn_iterations += sr.iterations;
    result.objective_trace.push_back(
        kernel_storage.TransportCost(warm_u, warm_v));

    // --- Outer step B: rebuild Q from the plan's target marginal via the
    // per-slice rank-one KL factorization (Algorithm 2 lines 8–13). ---
    // Column marginal of the plan without materializing it.
    linalg::Vector target_mass;
    kernel_storage.ColumnMarginal(warm_u, warm_v, ktu, target_mass);
    const double total = target_mass.Sum();
    if (total <= 0.0) {
      return Status::Internal("FastOtClean: plan lost all mass");
    }
    target_mass /= total;
    prob::JointDistribution t = ExpandToDomain(dom, col_cells, target_mass);
    prob::JointDistribution q_proj =
        options.iterative_nmf
            ? IterativeNmfProjection(t, ci, options.nmf_max_iterations, rng)
            : prob::CiProjection(t, ci);

    if (options.ci_strength < 1.0) {
      // Soft enforcement: blend projection with the raw marginal (finite μ).
      for (size_t i = 0; i < q_proj.size(); ++i) {
        q_proj[i] =
            options.ci_strength * q_proj[i] +
            (1.0 - options.ci_strength) * t[i];
      }
      q_proj.Normalize();
    }

    const double delta = q.TotalVariation(q_proj);
    q = std::move(q_proj);
    result.outer_iterations = outer + 1;
    if (delta <= options.outer_tolerance) {
      result.converged = true;
      break;
    }
  }

  result.plan =
      kernel_storage.MaterializePlan(dom, row_cells, col_cells, warm_u,
                                     warm_v, result.transport_cost);
  result.target = q;
  result.target_cmi = prob::ConditionalMutualInformation(q, ci);
  StoreCachedWarmStart(options.solve_cache, cache_key, options,
                       kernel_storage.log_domain(), warm_u, warm_v,
                       warm_cold_baseline, result);
  return result;
}

Result<FastOtCleanResult> FastOtCleanMulti(
    const prob::JointDistribution& p_data,
    const std::vector<prob::CiSpec>& cis, const ot::CostFunction& cost,
    const FastOtCleanOptions& options, Rng& rng) {
  const prob::Domain& dom = p_data.domain();
  if (dom.TotalSize() == 0) {
    return Status::InvalidArgument("FastOtCleanMulti: empty domain");
  }
  if (cis.empty()) {
    return Status::InvalidArgument("FastOtCleanMulti: no constraints");
  }
  if (std::fabs(p_data.Mass() - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        "FastOtCleanMulti: p_data must be normalized");
  }
  if (options.ci_strength < 0.0 || options.ci_strength > 1.0) {
    return Status::InvalidArgument(
        "FastOtCleanMulti: ci_strength must be in [0,1]");
  }
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument(
        "FastOtCleanMulti: epsilon must be positive");
  }
  if (options.max_outer_iterations == 0) {
    return Status::InvalidArgument(
        "FastOtCleanMulti: max_outer_iterations must be > 0");
  }

  std::vector<size_t> row_cells;
  for (size_t i = 0; i < p_data.size(); ++i) {
    if (p_data[i] > 0.0) row_cells.push_back(i);
  }
  if (row_cells.empty()) {
    return Status::InvalidArgument("FastOtCleanMulti: p_data carries no mass");
  }
  std::vector<size_t> col_cells;
  if (options.restrict_columns_to_active) {
    col_cells = row_cells;
  } else {
    col_cells.resize(dom.TotalSize());
    for (size_t i = 0; i < col_cells.size(); ++i) col_cells[i] = i;
  }

  linalg::Vector p(row_cells.size());
  for (size_t i = 0; i < row_cells.size(); ++i) p[i] = p_data[row_cells[i]];

  const ot::FunctionCostProvider cost_view(dom, row_cells, col_cells, cost);
  // Same finite-cost guard as the single-constraint path above.
  OTCLEAN_RETURN_NOT_OK(
      ot::ValidateFiniteCosts("FastOtCleanMulti", cost_view));
  OTCLEAN_RETURN_NOT_OK(
      CheckStop(options.cancel_token, options.deadline, "FastOtCleanMulti"));

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

  prob::JointDistribution q(dom);
  if (options.nmf_init) {
    q = prob::MultiCiProjection(p_data, cis);
  } else {
    for (size_t i = 0; i < q.size(); ++i) q[i] = rng.NextDouble();
    q.Normalize();
    q = prob::MultiCiProjection(q, cis);
  }

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

  // One worker pool for the whole repair: every Sinkhorn iteration of
  // every outer step dispatches on it, so workers start once per repair.
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);

  const uint64_t fast_fp =
      options.solve_cache != nullptr && !poison_kernel
          ? FastCostFingerprint(cost, dom, row_cells, col_cells)
          : 0;
  const ot::KernelSpec spec = FastKernelSpec(options, pool);
  const SolveCacheKey cache_key = ot::KernelCacheKey(
      fast_fp, row_cells.size(), col_cells.size(), spec);
  MaybeInjectAllocFailure(options.fault_injector);
  const OuterLoopKernel kernel_storage(build_view, spec, options.solve_cache,
                                       cache_key);
  OTCLEAN_RETURN_NOT_OK(kernel_storage.CheckSupport(p, "FastOtCleanMulti"));

  FastOtCleanResult result;
  result.kernel_nnz = kernel_storage.nnz();
  if (options.solve_cache != nullptr && cache_key.valid()) {
    result.cache_kernel_hits = kernel_storage.build.cache_hit ? 1 : 0;
    result.cache_kernel_misses = kernel_storage.build.cache_hit ? 0 : 1;
  }
  linalg::Vector warm_u, warm_v, ktu;
  size_t warm_cold_baseline = 0;
  result.cache_warm_started = FetchCachedWarmStart(
      options.solve_cache, cache_key, options, p.size(), col_cells.size(),
      kernel_storage.log_domain(), warm_u, warm_v, warm_cold_baseline);
  OTCLEAN_RETURN_NOT_OK(MaybeAnnealFirstSolve(
      build_view, p, q, col_cells, options, sink, fast_fp,
      kernel_storage.log_domain(), pool, warm_u, warm_v, result));

  for (size_t outer = 0; outer < options.max_outer_iterations; ++outer) {
    OTCLEAN_RETURN_NOT_OK(CheckStop(options.cancel_token, options.deadline,
                                    "FastOtCleanMulti"));
    linalg::Vector q_cols(col_cells.size());
    for (size_t j = 0; j < col_cells.size(); ++j) q_cols[j] = q[col_cells[j]];

    const linalg::Vector* wu =
        (options.warm_start && warm_u.size() == p.size()) ? &warm_u : nullptr;
    const linalg::Vector* wv =
        (options.warm_start && warm_v.size() == q_cols.size()) ? &warm_v
                                                               : nullptr;
    OTCLEAN_ASSIGN_OR_RETURN(ot::SinkhornScaling sr,
                             kernel_storage.Solve(p, q_cols, sink, wu, wv));
    warm_u = std::move(sr.u);
    warm_v = std::move(sr.v);
    result.total_sinkhorn_iterations += sr.iterations;
    result.objective_trace.push_back(
        kernel_storage.TransportCost(warm_u, warm_v));

    // Column marginal of the plan without materializing it.
    linalg::Vector target_mass;
    kernel_storage.ColumnMarginal(warm_u, warm_v, ktu, target_mass);

    const double total = target_mass.Sum();
    if (total <= 0.0) {
      return Status::Internal("FastOtCleanMulti: plan lost all mass");
    }
    target_mass /= total;
    prob::JointDistribution t = ExpandToDomain(dom, col_cells, target_mass);
    prob::JointDistribution q_proj = prob::MultiCiProjection(t, cis);

    if (options.ci_strength < 1.0) {
      for (size_t i = 0; i < q_proj.size(); ++i) {
        q_proj[i] = options.ci_strength * q_proj[i] +
                    (1.0 - options.ci_strength) * t[i];
      }
      q_proj.Normalize();
    }

    const double delta = q.TotalVariation(q_proj);
    q = std::move(q_proj);
    result.outer_iterations = outer + 1;
    if (delta <= options.outer_tolerance) {
      result.converged = true;
      break;
    }
  }

  result.plan =
      kernel_storage.MaterializePlan(dom, row_cells, col_cells, warm_u,
                                     warm_v, result.transport_cost);
  result.target = q;
  result.target_cmi = prob::MaxCmi(q, cis);
  StoreCachedWarmStart(options.solve_cache, cache_key, options,
                       kernel_storage.log_domain(), warm_u, warm_v,
                       warm_cold_baseline, result);
  return result;
}

}  // namespace otclean::core
