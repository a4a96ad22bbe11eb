#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/solve_cache.h"
#include "linalg/parallel_for.h"
#include "linalg/thread_pool.h"
#include "ot/kernel_factory.h"

namespace otclean::ot {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Guards the scaling vectors against overflow and junk. Kernels with a
/// large dynamic range (e.g. costs that effectively forbid some moves) can
/// push u or v past the double range over many iterations; an infinite
/// scaling entry then zeroes the opposite vector and silently drains the
/// plan — +inf (and any overflow past 1e150) clamps to 1e150 to keep
/// u·K·v finite. A NaN (a 0/0 — no mass demanded, none reachable) or a
/// negative entry means "no mass" and collapses to 0: mapping it to the
/// clamp CEILING, as this function once did, inflated u·K·v and
/// transport_cost with mass that never existed.
void ClampScaling(linalg::Vector& s) {
  constexpr double kMax = 1e150;
  for (size_t i = 0; i < s.size(); ++i) {
    if (std::isnan(s[i]) || s[i] < 0.0) {
      s[i] = 0.0;
    } else if (s[i] > kMax) {
      s[i] = kMax;
    }
  }
}

/// Relaxed update exponent λ/(λ+ε) (Frogner et al., Prop 4.2; the paper's
/// Eq. 5 exponent ρλ/(ρλ+1) with ρ = 1/ε). 1 in classic (hard-marginal)
/// mode.
double RelaxedExponent(const SinkhornOptions& options) {
  return options.relaxed ? options.lambda / (options.lambda + options.epsilon)
                         : 1.0;
}

/// THE convergence loop — every solver variant (dense, sparse, relaxed,
/// linear- or log-domain) runs this one loop and differs only in its
/// half-iteration updates and change metric. `row_update(v, new_u)` writes
/// the next row potential from the current column potential (including any
/// relaxed exponent and clamping); `col_update(new_u, new_v)` the
/// converse; `delta(a, b)` measures the max-change between successive
/// potentials.
/// A non-OK return means the solve was aborted by `options.cancel_token`
/// or `options.deadline` — the stop is checked once per iteration, before
/// the half-updates, so an abort never leaves a half-applied iteration
/// and a completed loop is bit-identical to one run without the checks.
/// The caller's ScopedStopFlag (installed around this loop) additionally
/// lets pooled kernel dispatches drain mid-iteration once a token fires.
template <typename RowUpdate, typename ColUpdate, typename Delta>
Status RunScalingLoop(linalg::Vector& u, linalg::Vector& v,
                      const SinkhornOptions& options, const char* where,
                      size_t& iterations, bool& converged,
                      RowUpdate&& row_update, ColUpdate&& col_update,
                      Delta&& delta) {
  linalg::Vector new_u(u.size()), new_v(v.size());
  for (size_t it = 0; it < options.max_iterations; ++it) {
    OTCLEAN_RETURN_NOT_OK(
        CheckStop(options.cancel_token, options.deadline, where));
    row_update(v, new_u);
    col_update(new_u, new_v);
    const double du = delta(new_u, u);
    const double dv = delta(new_v, v);
    std::swap(u, new_u);
    std::swap(v, new_v);
    iterations = it + 1;
    if (du <= options.tolerance && dv <= options.tolerance) {
      converged = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

/// Max-change between successive LOG-potential vectors. Two −inf entries
/// are an unchanged "no mass" state (Δ = 0 for that coordinate), but a
/// potential flipping between finite and −inf — mass appearing or
/// disappearing under relaxed mode — is a real, infinite change: it must
/// read as Δ = ∞, never be skipped, or the loop reports convergence in
/// the very iteration the support changed.
double LogPotentialDelta(const linalg::Vector& a, const linalg::Vector& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;  // equal finites, and −inf vs −inf
    const double di = std::fabs(a[i] - b[i]);
    if (!std::isfinite(di)) {
      return std::numeric_limits<double>::infinity();
    }
    d = std::max(d, di);
  }
  return d;
}

/// ln with log(0) := −inf (the log-domain "no mass" marker; note this is
/// NOT Vector::CwiseLogSafe, whose 0 ↦ 0 convention serves entropy sums).
double LogOrNegInf(double x) {
  return x > 0.0 ? std::log(x) : kNegInf;
}

Status ValidateMarginals(const char* where, const linalg::Vector& p,
                         const linalg::Vector& q) {
  for (size_t i = 0; i < p.size(); ++i) {
    if (!std::isfinite(p[i]) || p[i] < 0.0) {
      return Status::InvalidArgument(
          std::string(where) + ": source marginal p[" + std::to_string(i) +
          "] = " + std::to_string(p[i]) + " (entries must be finite and >= 0)");
    }
  }
  for (size_t j = 0; j < q.size(); ++j) {
    if (!std::isfinite(q[j]) || q[j] < 0.0) {
      return Status::InvalidArgument(
          std::string(where) + ": target marginal q[" + std::to_string(j) +
          "] = " + std::to_string(q[j]) + " (entries must be finite and >= 0)");
    }
  }
  return Status::OK();
}

/// Warm starts either match the problem exactly or are an error — a
/// silently ignored warm vector cold-starts the solve, which an outer
/// loop (FastOTClean) would never notice beyond mysteriously slow
/// convergence.
Status ValidateWarmStart(const char* where, const linalg::Vector* warm_u,
                         size_t rows, const linalg::Vector* warm_v,
                         size_t cols) {
  if (warm_u != nullptr && warm_u->size() != rows) {
    return Status::InvalidArgument(
        std::string(where) + ": warm_u has size " +
        std::to_string(warm_u->size()) + " but the problem has " +
        std::to_string(rows) + " rows (pass null to cold-start)");
  }
  if (warm_v != nullptr && warm_v->size() != cols) {
    return Status::InvalidArgument(
        std::string(where) + ": warm_v has size " +
        std::to_string(warm_v->size()) + " but the problem has " +
        std::to_string(cols) + " columns (pass null to cold-start)");
  }
  return Status::OK();
}

/// Generous upper bound on annealing stages — a schedule whose geometric
/// decay needs more than this many stages to reach the final ε (decay
/// pathologically close to 1, or an absurd initial/final ratio) is a
/// configuration error, not a workload.
constexpr size_t kMaxAnnealStages = 64;

Status ValidateSchedule(const char* where, const SinkhornOptions& options) {
  const EpsilonSchedule& s = options.epsilon_schedule;
  if (!s.enabled()) return Status::OK();
  if (!(s.initial_epsilon > options.epsilon)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon_schedule.initial_epsilon (" +
        std::to_string(s.initial_epsilon) +
        ") must exceed the final epsilon (" + std::to_string(options.epsilon) +
        ") — annealing runs from easy (large ε) to sharp (small ε)");
  }
  if (!(s.decay > 0.0 && s.decay < 1.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon_schedule.decay = " +
        std::to_string(s.decay) + " must lie in (0, 1)");
  }
  if (!(s.stage_tolerance > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon_schedule.stage_tolerance must be > 0");
  }
  if (s.stage_max_iterations == 0) {
    return Status::InvalidArgument(
        std::string(where) +
        ": epsilon_schedule.stage_max_iterations must be positive");
  }
  size_t stages = 0;
  for (double e = s.initial_epsilon; e > options.epsilon;
       e = std::max(options.epsilon, e * s.decay)) {
    if (++stages > kMaxAnnealStages) {
      return Status::InvalidArgument(
          std::string(where) + ": epsilon_schedule would run more than " +
          std::to_string(kMaxAnnealStages) +
          " stages — use a smaller decay or initial_epsilon");
    }
  }
  return Status::OK();
}

Status ValidateInputs(const char* where, const linalg::CostProvider& cost,
                      const linalg::Vector& p, const linalg::Vector& q,
                      const SinkhornOptions& options) {
  if (p.size() != cost.rows() || q.size() != cost.cols()) {
    return Status::InvalidArgument(std::string(where) +
                                   ": marginal dimension mismatch");
  }
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument(std::string(where) +
                                   ": epsilon must be positive");
  }
  // max_iterations == 0 silently returned the cold-start potentials as a
  // "converged: false" result — an all-ones plan scaling that looks like a
  // solve. tolerance <= 0 (or NaN) can never be met, so every run burned
  // the full iteration budget and reported failure. Both are caller bugs;
  // reject them loudly.
  if (options.max_iterations == 0) {
    return Status::InvalidArgument(
        std::string(where) +
        ": max_iterations must be positive (a 0-iteration run would return "
        "the unsolved cold-start scalings)");
  }
  if (!(options.tolerance > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": tolerance = " +
        std::to_string(options.tolerance) +
        " can never be reached (it must be a positive number)");
  }
  if (Status s = ValidateSchedule(where, options); !s.ok()) return s;
  if (Status s = ValidateMarginals(where, p, q); !s.ok()) return s;
  return ValidateFiniteCosts(where, cost);
}

}  // namespace

// A NaN or ±inf cost entry propagates through the kernel into a NaN (or
// silently empty) plan; reject it up front, naming the offending entry.
// For function-backed providers this is a second full evaluation pass on
// top of the kernel build's — accepted deliberately: it runs once per
// solve (the iterations dominate), and checking inside the truncated
// kernel build instead would miss NaN entries entirely (NaN ≥ cutoff is
// false, so they are silently truncated away rather than caught).
Status ValidateFiniteCosts(const char* where,
                           const linalg::CostProvider& cost) {
  const size_t rows = cost.rows();
  const size_t cols = cost.cols();
  const auto fail = [&](size_t r, size_t c, double v) {
    return Status::InvalidArgument(
        std::string(where) + ": cost(" + std::to_string(r) + ", " +
        std::to_string(c) + ") = " + std::to_string(v) +
        " is not finite; costs must be finite (use a large finite penalty "
        "for forbidden moves)");
  };
  if (const linalg::Matrix* dense = cost.AsMatrix()) {
    const double* data = dense->data().data();
    for (size_t i = 0; i < dense->size(); ++i) {
      if (!std::isfinite(data[i])) return fail(i / cols, i % cols, data[i]);
    }
    return Status::OK();
  }
  std::vector<double> tile(std::min(cols, linalg::kCostStreamTileCols));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c0 = 0; c0 < cols; c0 += tile.size()) {
      const size_t c1 = std::min(cols, c0 + tile.size());
      cost.Fill(r, c0, c1, tile.data());
      for (size_t c = c0; c < c1; ++c) {
        if (!std::isfinite(tile[c - c0])) return fail(r, c, tile[c - c0]);
      }
    }
  }
  return Status::OK();
}

namespace {

/// Per-solve view of the cross-request warm-start store, under the same
/// key the solve's kernel is cached under (KernelCacheKey); no-ops
/// throughout when the cache is absent or the fingerprint is 0.
struct CacheSession {
  core::SolveCache* cache = nullptr;
  core::SolveCacheKey key;
  std::optional<core::CachedWarmStart> stored;
  bool warm_used = false;
  bool use_warm_store = false;

  CacheSession(const SinkhornOptions& options, const core::SolveCacheKey& k)
      : key(k) {
    if (options.solve_cache == nullptr || !key.valid()) return;
    cache = options.solve_cache;
    use_warm_store = options.cache_warm_start;
  }

  bool active() const { return cache != nullptr; }

  /// Redirects null warm pointers at the stored potentials (caller's
  /// explicit warm vectors always win; stored sizes must match exactly —
  /// else cold-start fallback).
  void MaybeWarm(const linalg::Vector*& warm_u,
                 const linalg::Vector*& warm_v) {
    if (!active() || !use_warm_store) return;
    if (warm_u != nullptr || warm_v != nullptr) return;
    stored = cache->FindWarmStart(key);
    if (!stored) return;
    if (stored->u.size() != key.rows || stored->v.size() != key.cols) {
      stored.reset();
      return;
    }
    warm_u = &stored->u;
    warm_v = &stored->v;
    warm_used = true;
  }

  /// Persists converged potentials and credits iteration savings against
  /// the key's cold baseline. Diverged runs store nothing — their
  /// potentials would poison later warm starts.
  void Finish(const linalg::Vector& u, const linalg::Vector& v,
              size_t iterations, bool converged) {
    if (!active() || !use_warm_store || !converged) return;
    cache->StoreWarmStart(key, u, v, iterations);
    if (warm_used && stored->cold_iterations > iterations) {
      cache->RecordWarmSavings(stored->cold_iterations - iterations);
    }
  }
};

/// Lifts linear-domain warm-start scalings into log-potentials when
/// present (the public RunSinkhorn/RunSinkhornSparse APIs speak linear u/v
/// even in log-domain mode, so warm starts round-trip between domains).
void WarmLogPotentials(const linalg::Vector* warm, size_t size,
                       std::optional<linalg::Vector>& out) {
  if (warm == nullptr) return;
  out.emplace(size);
  for (size_t i = 0; i < size; ++i) (*out)[i] = LogOrNegInf((*warm)[i]);
}

/// Linear-domain scalings from converged log-potentials.
linalg::Vector ExpPotentials(const linalg::Vector& lp) {
  linalg::Vector out(lp.size());
  for (size_t i = 0; i < lp.size(); ++i) {
    out[i] = lp[i] == kNegInf ? 0.0 : std::exp(lp[i]);
  }
  ClampScaling(out);
  return out;
}

/// Potential carry-over between annealing stages: u ≈ e^{f/ε} for a dual
/// potential f that varies slowly with ε, so the stage-(k+1) start is
/// u^{ε_k/ε_{k+1}}. Zeros ("no mass") stay zero; the exponent exceeds 1
/// (ε shrinks), so clamp the blow-up exactly as the engine loop would.
void RescalePotentials(linalg::Vector& s, double ratio) {
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = s[i] > 0.0 ? std::pow(s[i], ratio) : 0.0;
  }
  ClampScaling(s);
}

/// Annealing applies only when nobody supplied a better start: explicit
/// warm vectors and warm-store hits are already warm. Call after
/// CacheSession::MaybeWarm so store hits have claimed the pointers.
bool ShouldAnneal(const SinkhornOptions& options, const linalg::Vector* warm_u,
                  const linalg::Vector* warm_v) {
  return options.epsilon_schedule.enabled() && warm_u == nullptr &&
         warm_v == nullptr;
}

/// The kernel an option set iterates on, at the given storage.
KernelSpec SpecFor(const SinkhornOptions& options, bool sparse, double cutoff,
                   linalg::ThreadPool* pool) {
  KernelSpec spec;
  spec.epsilon = options.epsilon;
  spec.sparse = sparse;
  spec.cutoff = cutoff;
  spec.log_domain = options.log_domain;
  spec.precision = options.precision;
  spec.num_threads = options.num_threads;
  spec.pool = pool;
  return spec;
}

/// The cache key of the kernel `spec` names for this solve's cost.
core::SolveCacheKey SolveKey(const linalg::CostProvider& cost,
                             const SinkhornOptions& options,
                             const KernelSpec& spec) {
  return KernelCacheKey(options.cache_cost_fingerprint, cost.rows(),
                        cost.cols(), spec);
}

/// The engine loop matching the kernel's domain, started from
/// linear-domain warm scalings (lifted to log-potentials for a log
/// kernel). Returns the potentials in the kernel's own domain — what its
/// plan and cost primitives take; ToLinearScalings converts them.
template <typename K>
Result<SinkhornScaling> RunEngine(const K& kernel, const linalg::Vector& p,
                                  const linalg::Vector& q,
                                  const SinkhornOptions& options,
                                  const linalg::Vector* warm_u,
                                  const linalg::Vector* warm_v) {
  if constexpr (kIsLogKernel<K>) {
    std::optional<linalg::Vector> warm_lu, warm_lv;
    WarmLogPotentials(warm_u, kernel.rows(), warm_lu);
    WarmLogPotentials(warm_v, kernel.cols(), warm_lv);
    OTCLEAN_ASSIGN_OR_RETURN(
        SinkhornLogScaling s,
        RunSinkhornLogScaling(kernel, p, q, options,
                              warm_lu ? &*warm_lu : nullptr,
                              warm_lv ? &*warm_lv : nullptr));
    return SinkhornScaling{std::move(s.lu), std::move(s.lv), s.iterations,
                           s.converged};
  } else {
    return RunSinkhornScaling(kernel, p, q, options, warm_u, warm_v);
  }
}

/// The potentials RunEngine returned, as linear-domain scalings.
template <typename K>
void ToLinearScalings(SinkhornScaling& s) {
  if constexpr (kIsLogKernel<K>) {
    s.u = ExpPotentials(s.u);
    s.v = ExpPotentials(s.v);
  }
}

/// π at the converged potentials, in the result's plan storage (a dense
/// kernel's plan converts only if a CSR result ever asks for one).
template <typename K>
void MaterializePlan(const K& kernel, const SinkhornScaling& s,
                     linalg::Matrix& plan) {
  plan = kernel.ScaleToPlan(s.u, s.v);
}
template <typename K>
void MaterializePlan(const K& kernel, const SinkhornScaling& s,
                     linalg::SparseMatrix& plan) {
  if constexpr (kIsSparseKernel<K>) {
    plan = kernel.ScaleToPlanSparse(s.u, s.v);
  } else {
    plan = linalg::SparseMatrix::FromDense(kernel.ScaleToPlan(s.u, s.v));
  }
}

/// One annealing stage: build (or fetch from the solve cache) the kernel
/// at the stage ε and run the engine loop at the schedule's loose
/// tolerance, updating the linear-domain potentials in place. The stage
/// honors log_domain and precision exactly as the final solve will, so
/// its warm start is shaped by the same arithmetic; no plan or transport
/// cost is ever materialized — stages exist only to move potentials.
Result<EpsilonAnnealStage> RunAnnealStage(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& stage_options,
    bool sparse, double cutoff, linalg::Vector& u, linalg::Vector& v,
    linalg::ThreadPool* pool) {
  // Dense linear kernels build from an in-memory cost; a function-backed
  // provider on the dense path falls back to a cutoff-0 sparse kernel
  // (same support, streamed build) so the stage never materializes the
  // cost matrix.
  const bool csr = sparse || (!stage_options.log_domain &&
                              cost.AsMatrix() == nullptr);
  const KernelSpec spec =
      SpecFor(stage_options, csr, sparse ? cutoff : 0.0, pool);
  const KernelBuild build = MakeKernel(cost, spec, stage_options.solve_cache,
                                       SolveKey(cost, stage_options, spec));
  // No per-stage support check: a stage ε exceeds the final ε, so its
  // truncated kept-set is a superset of the final kernel's — the final
  // solve's check governs. An emptied stage row merely yields a zero
  // potential there, which the final solve overwrites or rejects.
  return std::visit(
      [&](const auto& kernel) -> Result<EpsilonAnnealStage> {
        using K = std::decay_t<decltype(kernel)>;
        OTCLEAN_ASSIGN_OR_RETURN(
            SinkhornScaling s,
            RunEngine(kernel, p, q, stage_options, &u, &v));
        ToLinearScalings<K>(s);
        u = std::move(s.u);
        v = std::move(s.v);
        return EpsilonAnnealStage{stage_options.epsilon, s.iterations,
                                  s.converged};
      },
      build.kernel);
}

/// The shared body of RunSinkhorn and RunSinkhornSparse once inputs are
/// validated: warm store, ε-annealing, the (cache-aware) kernel, the
/// engine loop, then π and ⟨C, π⟩ at the converged potentials. `Out`
/// picks the plan storage — a dense plan for SinkhornResult, CSR for
/// SparseSinkhornResult.
template <typename Out>
Result<Out> SolveOnKernel(const linalg::CostProvider& cost,
                          const linalg::Vector& p, const linalg::Vector& q,
                          const SinkhornOptions& options,
                          const KernelSpec& spec, const linalg::Vector* warm_u,
                          const linalg::Vector* warm_v, const char* where) {
  CacheSession session(options, SolveKey(cost, options, spec));
  session.MaybeWarm(warm_u, warm_v);
  EpsilonAnnealWarmStart anneal;
  if (ShouldAnneal(options, warm_u, warm_v)) {
    OTCLEAN_ASSIGN_OR_RETURN(
        anneal, RunSinkhornAnnealed(cost, p, q, options, spec.sparse,
                                    spec.cutoff, spec.pool));
    warm_u = &anneal.u;
    warm_v = &anneal.v;
  }
  const KernelBuild build =
      MakeKernel(cost, spec, options.solve_cache, session.key);
  // Hard-marginal mode must reach every row and column carrying mass.
  // Relaxed mode only soft-matches the target marginal, so an unreachable
  // column legitimately ends up under-served — check rows only (stranded
  // *source* mass silently degrades repairs to the identity either way).
  const linalg::Vector* q_check = options.relaxed ? nullptr : &q;
  return std::visit(
      [&](const auto& kernel) -> Result<Out> {
        using K = std::decay_t<decltype(kernel)>;
        if constexpr (kIsSparseKernel<K>) {
          // Support depends on p/q, not just the kernel — re-check on hits.
          OTCLEAN_RETURN_NOT_OK(CheckTruncatedKernelSupport(
              *kernel.shared_storage(), &p, q_check, where));
        }
        OTCLEAN_ASSIGN_OR_RETURN(
            SinkhornScaling s,
            RunEngine(kernel, p, q, options, warm_u, warm_v));
        Out result;
        MaterializePlan(kernel, s, result.plan);
        result.transport_cost = kernel.TransportCost(cost, s.u, s.v);
        ToLinearScalings<K>(s);
        result.u = std::move(s.u);
        result.v = std::move(s.v);
        result.iterations = s.iterations;
        result.converged = s.converged;
        result.anneal_stages = std::move(anneal.stages);
        session.Finish(result.u, result.v, result.iterations,
                       result.converged);
        return result;
      },
      build.kernel);
}

}  // namespace

Result<SinkhornScaling> RunSinkhornScaling(
    const linalg::TransportKernel& kernel, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    const linalg::Vector* warm_u, const linalg::Vector* warm_v) {
  const size_t m = kernel.rows();
  const size_t n = kernel.cols();
  if (p.size() != m || q.size() != n) {
    return Status::InvalidArgument(
        "RunSinkhornScaling: marginal dimension mismatch");
  }
  if (Status s = ValidateMarginals("RunSinkhornScaling", p, q); !s.ok()) {
    return s;
  }
  if (Status s = ValidateWarmStart("RunSinkhornScaling", warm_u, m, warm_v, n);
      !s.ok()) {
    return s;
  }
  SinkhornScaling out;
  out.u = warm_u != nullptr ? *warm_u : linalg::Vector::Ones(m);
  out.v = warm_v != nullptr ? *warm_v : linalg::Vector::Ones(n);

  const double exponent = RelaxedExponent(options);
  linalg::Vector kv(m), ktu(n);
  // Element-wise into the loop's preallocated buffer — the equivalent of
  // CwiseQuotientSafe (x/0 := 0) + CwisePow (zeros preserved) +
  // ClampScaling, without per-half-iteration allocations. Same policy as
  // ClampScaling: overflow to the ceiling, NaN/negative to no-mass 0.
  auto scale = [&](const linalg::Vector& marginal, const linalg::Vector& denom,
                   linalg::Vector& next) {
    constexpr double kMax = 1e150;
    for (size_t i = 0; i < next.size(); ++i) {
      double s = denom[i] != 0.0 ? marginal[i] / denom[i] : 0.0;
      if (exponent != 1.0) s = s > 0.0 ? std::pow(s, exponent) : 0.0;
      if (std::isnan(s) || s < 0.0) {
        s = 0.0;
      } else if (s > kMax) {
        s = kMax;
      }
      next[i] = s;
    }
  };

  // While the loop runs, pooled kernel dispatches observe the token too:
  // a fired token drains in-flight Apply/ApplyTranspose dispatches without
  // touching their chunk decomposition.
  linalg::ThreadPool::ScopedStopFlag stop_scope(
      options.cancel_token != nullptr ? options.cancel_token->flag()
                                      : nullptr);
  OTCLEAN_RETURN_NOT_OK(RunScalingLoop(
      out.u, out.v, options, "RunSinkhornScaling", out.iterations,
      out.converged,
      /*row_update=*/
      [&](const linalg::Vector& v, linalg::Vector& next_u) {
        kernel.Apply(v, kv);
        scale(p, kv, next_u);
      },
      /*col_update=*/
      [&](const linalg::Vector& u, linalg::Vector& next_v) {
        kernel.ApplyTranspose(u, ktu);
        scale(q, ktu, next_v);
      },
      /*delta=*/
      [](const linalg::Vector& a, const linalg::Vector& b) {
        return (a - b).NormInf();
      }));
  return out;
}

Result<SinkhornLogScaling> RunSinkhornLogScaling(
    const linalg::LogTransportKernel& kernel, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    const linalg::Vector* warm_lu, const linalg::Vector* warm_lv) {
  const size_t m = kernel.rows();
  const size_t n = kernel.cols();
  if (p.size() != m || q.size() != n) {
    return Status::InvalidArgument(
        "RunSinkhornLogScaling: marginal dimension mismatch");
  }
  if (Status s = ValidateMarginals("RunSinkhornLogScaling", p, q); !s.ok()) {
    return s;
  }
  if (Status s = ValidateWarmStart("RunSinkhornLogScaling", warm_lu, m,
                                   warm_lv, n);
      !s.ok()) {
    return s;
  }
  linalg::Vector log_p(m), log_q(n);
  for (size_t i = 0; i < m; ++i) log_p[i] = LogOrNegInf(p[i]);
  for (size_t j = 0; j < n; ++j) log_q[j] = LogOrNegInf(q[j]);

  SinkhornLogScaling out;
  out.lu = warm_lu != nullptr ? *warm_lu : linalg::Vector(m, 0.0);
  out.lv = warm_lv != nullptr ? *warm_lv : linalg::Vector(n, 0.0);

  const double exponent = RelaxedExponent(options);
  linalg::Vector lse_rows(m), lse_cols(n);
  linalg::ThreadPool::ScopedStopFlag stop_scope(
      options.cancel_token != nullptr ? options.cancel_token->flag()
                                      : nullptr);
  OTCLEAN_RETURN_NOT_OK(RunScalingLoop(
      out.lu, out.lv, options, "RunSinkhornLogScaling", out.iterations,
      out.converged,
      // Log-domain half-iterations: lu_i = λ'·(log p_i − log(K·v)_i) with
      // the LSE streamed by the kernel; p_i = 0 (or an unreachable row)
      // keeps lu_i = −inf, matching the linear-domain 0/0 := 0 convention.
      /*row_update=*/
      [&](const linalg::Vector& lvv, linalg::Vector& next_lu) {
        kernel.LogApply(lvv, lse_rows);
        for (size_t i = 0; i < m; ++i) {
          next_lu[i] = (log_p[i] == kNegInf || lse_rows[i] == kNegInf)
                           ? kNegInf
                           : exponent * (log_p[i] - lse_rows[i]);
        }
      },
      /*col_update=*/
      [&](const linalg::Vector& luu, linalg::Vector& next_lv) {
        kernel.LogApplyTranspose(luu, lse_cols);
        for (size_t j = 0; j < n; ++j) {
          next_lv[j] = (log_q[j] == kNegInf || lse_cols[j] == kNegInf)
                           ? kNegInf
                           : exponent * (log_q[j] - lse_cols[j]);
        }
      },
      /*delta=*/LogPotentialDelta));
  return out;
}

Result<SinkhornResult> RunSinkhorn(const linalg::Matrix& cost,
                                   const linalg::Vector& p,
                                   const linalg::Vector& q,
                                   const SinkhornOptions& options,
                                   const linalg::Vector* warm_u,
                                   const linalg::Vector* warm_v) {
  const linalg::MatrixCostProvider provider(cost);
  OTCLEAN_RETURN_NOT_OK(ValidateInputs("RunSinkhorn", provider, p, q, options));
  OTCLEAN_RETURN_NOT_OK(ValidateWarmStart("RunSinkhorn", warm_u, cost.rows(),
                                          warm_v, cost.cols()));
  // Entry stop check: an already-fired token / expired deadline aborts
  // before any kernel is built (or fetched and pinned from the cache).
  OTCLEAN_RETURN_NOT_OK(
      CheckStop(options.cancel_token, options.deadline, "RunSinkhorn"));
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);
  return SolveOnKernel<SinkhornResult>(
      provider, p, q, options, SpecFor(options, /*sparse=*/false, 0.0, pool),
      warm_u, warm_v, "RunSinkhorn");
}

Status CheckTruncatedKernelSupport(const linalg::SparsePattern& kernel,
                                   const linalg::Vector* p,
                                   const linalg::Vector* q,
                                   const char* where) {
  if (p != nullptr) {
    for (size_t r = 0; r < kernel.rows; ++r) {
      if ((*p)[r] > 0.0 && kernel.row_ptr[r + 1] == kernel.row_ptr[r]) {
        return Status::InvalidArgument(
            std::string(where) + ": truncation emptied kernel row " +
            std::to_string(r) + " which carries source mass " +
            std::to_string((*p)[r]) +
            " — that mass would be stranded; lower the kernel cutoff");
      }
    }
  }
  if (q != nullptr) {
    for (size_t c = 0; c < kernel.cols; ++c) {
      if ((*q)[c] > 0.0 && kernel.col_ptr[c + 1] == kernel.col_ptr[c]) {
        return Status::InvalidArgument(
            std::string(where) + ": truncation emptied kernel column " +
            std::to_string(c) + " which carries target mass " +
            std::to_string((*q)[c]) +
            " — that mass would be stranded; lower the kernel cutoff");
      }
    }
  }
  return Status::OK();
}

Result<EpsilonAnnealWarmStart> RunSinkhornAnnealed(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options, bool sparse,
    double cutoff, linalg::ThreadPool* pool) {
  const EpsilonSchedule& sched = options.epsilon_schedule;
  if (!sched.enabled()) {
    return Status::InvalidArgument(
        "RunSinkhornAnnealed: epsilon_schedule is disabled "
        "(initial_epsilon == 0) — there are no stages to run");
  }
  if (Status s = ValidateSchedule("RunSinkhornAnnealed", options); !s.ok()) {
    return s;
  }
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument(
        "RunSinkhornAnnealed: epsilon must be positive");
  }
  if (p.size() != cost.rows() || q.size() != cost.cols()) {
    return Status::InvalidArgument(
        "RunSinkhornAnnealed: marginal dimension mismatch");
  }
  if (Status s = ValidateMarginals("RunSinkhornAnnealed", p, q); !s.ok()) {
    return s;
  }
  std::optional<linalg::ThreadPool> owned_pool;
  if (pool == nullptr) {
    pool = linalg::ResolveSolvePool(options.thread_pool, options.num_threads,
                                    owned_pool);
  }

  EpsilonAnnealWarmStart out;
  out.u = linalg::Vector::Ones(cost.rows());
  out.v = linalg::Vector::Ones(cost.cols());
  double eps = sched.initial_epsilon;
  while (eps > options.epsilon) {
    // Per-stage stop check; the stage options copy below also carries the
    // token/deadline into the stage's own engine loop.
    OTCLEAN_RETURN_NOT_OK(CheckStop(options.cancel_token, options.deadline,
                                    "RunSinkhornAnnealed"));
    SinkhornOptions stage_options = options;
    stage_options.epsilon = eps;
    stage_options.tolerance = sched.stage_tolerance;
    stage_options.max_iterations = sched.stage_max_iterations;
    // Stage kernels get their own cache entries (the key carries the
    // stage ε), but the warm-start tier stays final-ε only: stage
    // potentials are deliberately half-baked.
    stage_options.cache_warm_start = false;
    stage_options.epsilon_schedule = EpsilonSchedule{};
    OTCLEAN_ASSIGN_OR_RETURN(
        EpsilonAnnealStage stage,
        RunAnnealStage(cost, p, q, stage_options, sparse, cutoff, out.u,
                       out.v, pool));
    out.stages.push_back(stage);
    const double next = std::max(options.epsilon, eps * sched.decay);
    RescalePotentials(out.u, eps / next);
    RescalePotentials(out.v, eps / next);
    eps = next;
  }
  return out;
}

double PlanEntropy(const linalg::Matrix& plan) {
  double h = 0.0;
  for (double v : plan.data()) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

Result<SparseSinkhornResult> RunSinkhornSparse(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    double kernel_cutoff, const linalg::Vector* warm_u,
    const linalg::Vector* warm_v) {
  OTCLEAN_RETURN_NOT_OK(
      ValidateInputs("RunSinkhornSparse", cost, p, q, options));
  if (kernel_cutoff < 0.0) {
    return Status::InvalidArgument(
        "RunSinkhornSparse: kernel_cutoff must be >= 0");
  }
  OTCLEAN_RETURN_NOT_OK(ValidateWarmStart("RunSinkhornSparse", warm_u,
                                          cost.rows(), warm_v, cost.cols()));
  OTCLEAN_RETURN_NOT_OK(
      CheckStop(options.cancel_token, options.deadline, "RunSinkhornSparse"));
  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);
  return SolveOnKernel<SparseSinkhornResult>(
      cost, p, q, options,
      SpecFor(options, /*sparse=*/true, kernel_cutoff, pool), warm_u, warm_v,
      "RunSinkhornSparse");
}

Result<SparseSinkhornResult> RunSinkhornSparse(
    const linalg::Matrix& cost, const linalg::Vector& p,
    const linalg::Vector& q, const SinkhornOptions& options,
    double kernel_cutoff, const linalg::Vector* warm_u,
    const linalg::Vector* warm_v) {
  return RunSinkhornSparse(linalg::MatrixCostProvider(cost), p, q, options,
                           kernel_cutoff, warm_u, warm_v);
}

}  // namespace otclean::ot
