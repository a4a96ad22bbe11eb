#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/solve_cache.h"
#include "linalg/fp_env.h"
#include "linalg/parallel_for.h"
#include "linalg/simd.h"
#include "linalg/thread_pool.h"
#include "ot/kernel_factory.h"

namespace otclean::ot {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Relaxed update exponent λ/(λ+ε) (Frogner et al., Prop 4.2; the paper's
/// Eq. 5 exponent ρλ/(ρλ+1) with ρ = 1/ε). 1 in classic (hard-marginal)
/// mode.
double RelaxedExponent(const SinkhornOptions& options) {
  return options.relaxed ? options.lambda / (options.lambda + options.epsilon)
                         : 1.0;
}

/// THE convergence loop — every solver variant (dense, sparse, relaxed,
/// linear- or log-domain) runs this one loop and differs only in its
/// half-iteration updates. `row_update(v, u, new_u)` writes the next row
/// potential from the current column potential (including any relaxed
/// exponent and clamping) and returns its scale-free max-change against
/// the current `u` (relative for scalings, absolute for log-potentials),
/// the one residual `options.tolerance` bounds; `col_update(new_u, v,
/// new_v)` is the converse.
/// A non-OK return means the solve was aborted by `options.cancel_token`
/// or `options.deadline` — the stop is checked once per iteration, before
/// the half-updates, so an abort never leaves a half-applied iteration
/// and a completed loop is bit-identical to one run without the checks.
/// The caller's ScopedStopFlag (installed around this loop) additionally
/// lets pooled kernel dispatches drain mid-iteration once a token fires.
template <typename RowUpdate, typename ColUpdate>
Status RunScalingLoop(linalg::Vector& u, linalg::Vector& v,
                      const SinkhornOptions& options, const char* where,
                      size_t& iterations, bool& converged,
                      RowUpdate&& row_update, ColUpdate&& col_update) {
  linalg::Vector new_u(u.size()), new_v(v.size());
  for (size_t it = 0; it < options.max_iterations; ++it) {
    OTCLEAN_RETURN_NOT_OK(
        CheckStop(options.cancel_token, options.deadline, where));
    const double du = row_update(v, u, new_u);
    const double dv = col_update(new_u, v, new_v);
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

/// Max-change between successive LOG-potential vectors — scale-free as it
/// stands: a multiplicative change of the scalings is an additive one
/// here. Two −inf entries are an unchanged "no mass" state (Δ = 0 for
/// that coordinate), but a potential flipping between finite and −inf —
/// mass appearing or disappearing under relaxed mode — is a real,
/// infinite change: it must read as Δ = ∞, never be skipped, or the loop
/// reports convergence in the very iteration the support changed.
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

Status ValidateInputs(const char* where, const linalg::CostProvider& cost,
                      const linalg::Vector& p, const linalg::Vector& q,
                      const SinkhornOptions& options) {
  if (p.size() != cost.rows() || q.size() != cost.cols()) {
    return Status::InvalidArgument(std::string(where) +
                                   ": marginal dimension mismatch");
  }
  OTCLEAN_RETURN_NOT_OK(ValidateSinkhornOptions(where, options));
  // tolerance <= 0 (or NaN) can never be met, so every run would burn the
  // full iteration budget and report failure — a caller bug here. (The
  // prebuilt-kernel entry points accept it: an outer loop may want a
  // fixed-count solve.)
  if (!(options.tolerance > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": tolerance = " +
        std::to_string(options.tolerance) +
        " can never be reached (it must be a positive number)");
  }
  if (Status s = ValidateMarginals(where, p, q); !s.ok()) return s;
  return ValidateFiniteCosts(where, cost, &options);
}

}  // namespace

Status ValidateSinkhornOptions(const char* where,
                               const SinkhornOptions& options) {
  if (!(std::isfinite(options.epsilon) && options.epsilon > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": epsilon = " + std::to_string(options.epsilon) +
        " must be a positive finite number");
  }
  if (options.relaxed &&
      !(std::isfinite(options.lambda) && options.lambda > 0.0)) {
    return Status::InvalidArgument(
        std::string(where) + ": lambda = " + std::to_string(options.lambda) +
        " must be a positive finite number");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument(
        std::string(where) +
        ": max_iterations must be positive (a 0-iteration run would return "
        "the unsolved cold-start scalings)");
  }
  return Status::OK();
}

// A NaN or ±inf cost entry propagates through the kernel into a NaN (or
// silently empty) plan; reject it up front, naming the offending entry.
// For function-backed providers this is a second full evaluation pass on
// top of the kernel build's — accepted deliberately: it runs once per
// solve (the iterations dominate), and checking inside the truncated
// kernel build instead would miss NaN entries entirely (NaN ≥ cutoff is
// false, so they are silently truncated away rather than caught).
Status ValidateFiniteCosts(const char* where, const linalg::CostProvider& cost,
                           const SinkhornOptions* kernel) {
  const size_t rows = cost.rows();
  const size_t cols = cost.cols();
  // Below this a linear kernel's e^{−C/ε} overflows its storage type.
  double floor = -std::numeric_limits<double>::infinity();
  if (kernel != nullptr && !kernel->log_domain) {
    const bool f32 = kernel->precision == linalg::Precision::kFloat32;
    floor = -kernel->epsilon *
            std::log(f32 ? std::numeric_limits<float>::max()
                         : std::numeric_limits<double>::max());
  }
  const auto fail = [&](size_t r, size_t c, double v) {
    const std::string entry = std::string(where) + ": cost(" +
                              std::to_string(r) + ", " + std::to_string(c) +
                              ") = " + std::to_string(v);
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          entry +
          " is not finite; costs must be finite (use a large finite penalty "
          "for forbidden moves)");
    }
    return Status::InvalidArgument(
        entry + " is below -epsilon*ln(max " +
        linalg::PrecisionName(kernel->precision) + ") = " +
        std::to_string(floor) +
        ", so its Gibbs weight e^{-C/eps} overflows the linear kernel; set "
        "log_domain, raise epsilon, or shift the costs up");
  };
  if (const linalg::Matrix* dense = cost.AsMatrix()) {
    const double* data = dense->data().data();
    for (size_t i = 0; i < dense->size(); ++i) {
      if (!(std::isfinite(data[i]) && data[i] >= floor)) {
        return fail(i / cols, i % cols, data[i]);
      }
    }
    return Status::OK();
  }
  std::vector<double> tile(std::min(cols, linalg::kCostStreamTileCols));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c0 = 0; c0 < cols; c0 += tile.size()) {
      const size_t c1 = std::min(cols, c0 + tile.size());
      cost.Fill(r, c0, c1, tile.data());
      for (size_t c = c0; c < c1; ++c) {
        const double v = tile[c - c0];
        if (!(std::isfinite(v) && v >= floor)) return fail(r, c, v);
      }
    }
  }
  return Status::OK();
}

namespace {

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

/// The shared body of RunSinkhorn and RunSinkhornSparse once inputs are
/// validated: the (cache-aware) kernel, the engine loop seeded by the
/// caller's warm start (lifted to log-potentials for a log kernel) or
/// cold, then π and ⟨C, π⟩ at the converged potentials. `Out` picks the
/// plan storage — a dense plan for SinkhornResult, CSR for
/// SparseSinkhornResult.
template <typename Out>
Result<Out> SolveOnKernel(const linalg::CostProvider& cost,
                          const linalg::Vector& p, const linalg::Vector& q,
                          const SinkhornOptions& options,
                          const KernelSpec& spec, const linalg::Vector* warm_u,
                          const linalg::Vector* warm_v, const char* where) {
  const KernelBuild build = MakeKernel(
      cost, spec, options.solve_cache,
      KernelCacheKey(options.cache_cost_fingerprint, cost.rows(), cost.cols(),
                     spec));
  // Hard-marginal mode must reach every row and column carrying mass.
  // Relaxed mode only soft-matches the target marginal, so an unreachable
  // column legitimately ends up under-served — check rows only (stranded
  // *source* mass silently degrades repairs to the identity either way).
  // Support depends on p/q, not just the kernel — re-checked on hits.
  OTCLEAN_RETURN_NOT_OK(CheckKernelSupport(
      build.kernel, p, options.relaxed ? nullptr : &q, where));
  // A log kernel iterates log-potentials: lift the linear warm start.
  std::optional<linalg::Vector> log_u, log_v;
  if (spec.log_domain) {
    if (warm_u != nullptr) warm_u = &log_u.emplace(LogPotentials(*warm_u));
    if (warm_v != nullptr) warm_v = &log_v.emplace(LogPotentials(*warm_v));
  }
  OTCLEAN_ASSIGN_OR_RETURN(
      SinkhornScaling s,
      RunEngine(build.kernel, p, q, options, warm_u, warm_v));
  Out result;
  std::visit(
      [&](const auto& kernel) {
        MaterializePlan(kernel, s, result.plan);
        result.transport_cost = kernel.TransportCost(cost, s.u, s.v);
      },
      build.kernel);
  result.u = spec.log_domain ? ExpPotentials(s.u) : std::move(s.u);
  result.v = spec.log_domain ? ExpPotentials(s.v) : std::move(s.v);
  result.iterations = s.iterations;
  result.converged = s.converged;
  return result;
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
  OTCLEAN_RETURN_NOT_OK(ValidateSinkhornOptions("RunSinkhornScaling", options));
  OTCLEAN_RETURN_NOT_OK(ValidateMarginals("RunSinkhornScaling", p, q));
  if (Status s = ValidateWarmStart("RunSinkhornScaling", warm_u, m, warm_v, n);
      !s.ok()) {
    return s;
  }
  SinkhornScaling out;
  out.u = warm_u != nullptr ? *warm_u : linalg::Vector::Ones(m);
  out.v = warm_v != nullptr ? *warm_v : linalg::Vector::Ones(n);

  const double exponent = RelaxedExponent(options);
  linalg::Vector scratch;
  out.ktu = linalg::Vector(n);
  // While the loop runs, pooled kernel dispatches observe the token too:
  // a fired token drains in-flight kernel dispatches without
  // touching their chunk decomposition. Subnormals are flushed for the
  // loop's duration (on pool workers too — they adopt the dispatcher's FP
  // mode): the underflowing K_ij·v_j products would otherwise each cost a
  // microcode assist, while rounding into sums far above them regardless.
  linalg::ThreadPool::ScopedStopFlag stop_scope(
      options.cancel_token != nullptr ? options.cancel_token->flag()
                                      : nullptr);
  linalg::ScopedFlushSubnormals flush_scope;
  OTCLEAN_RETURN_NOT_OK(RunScalingLoop(
      out.u, out.v, options, "RunSinkhornScaling", out.iterations,
      out.converged,
      // Each half-update writes its scalings and their relative change in
      // one pass of the SIMD relaxed update (linalg/simd.h). The row
      // half-update also leaves Kᵀ·next_u in out.ktu — one kernel pass per
      // sweep — so the column half-update reads no kernel at all.
      /*row_update=*/
      [&](const linalg::Vector& v, const linalg::Vector& u,
          linalg::Vector& next_u) {
        return kernel.UpdateRowsApplyTranspose(p, exponent, v, u, next_u,
                                               out.ktu, scratch);
      },
      /*col_update=*/
      [&](const linalg::Vector& /*next_u, already in out.ktu*/,
          const linalg::Vector& v, linalg::Vector& next_v) {
        return linalg::simd::ScalingUpdate(q.begin(), out.ktu.begin(),
                                           exponent, v.begin(),
                                           next_v.begin(), n);
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
  OTCLEAN_RETURN_NOT_OK(ValidateSinkhornOptions("RunSinkhornLogScaling", options));
  OTCLEAN_RETURN_NOT_OK(ValidateMarginals("RunSinkhornLogScaling", p, q));
  if (Status s = ValidateWarmStart("RunSinkhornLogScaling", warm_lu, m,
                                   warm_lv, n);
      !s.ok()) {
    return s;
  }
  const linalg::Vector log_p = LogPotentials(p);
  const linalg::Vector log_q = LogPotentials(q);

  SinkhornLogScaling out;
  out.lu = warm_lu != nullptr ? *warm_lu : linalg::Vector(m, 0.0);
  out.lv = warm_lv != nullptr ? *warm_lv : linalg::Vector(n, 0.0);

  const double exponent = RelaxedExponent(options);
  linalg::Vector lse_rows(m);
  out.lse_cols = linalg::Vector(n);
  linalg::ThreadPool::ScopedStopFlag stop_scope(
      options.cancel_token != nullptr ? options.cancel_token->flag()
                                      : nullptr);
  linalg::ScopedFlushSubnormals flush_scope;  // as in RunSinkhornScaling
  OTCLEAN_RETURN_NOT_OK(RunScalingLoop(
      out.lu, out.lv, options, "RunSinkhornLogScaling", out.iterations,
      out.converged,
      // Log-domain half-iterations: lu_i = λ'·(log p_i − log(K·v)_i) with
      // the LSE streamed by the kernel; p_i = 0 (or an unreachable row)
      // keeps lu_i = −inf, matching the linear-domain 0/0 := 0 convention.
      /*row_update=*/
      [&](const linalg::Vector& lvv, const linalg::Vector& lu,
          linalg::Vector& next_lu) {
        kernel.LogApply(lvv, lse_rows);
        for (size_t i = 0; i < m; ++i) {
          next_lu[i] = (log_p[i] == kNegInf || lse_rows[i] == kNegInf)
                           ? kNegInf
                           : exponent * (log_p[i] - lse_rows[i]);
        }
        return LogPotentialDelta(next_lu, lu);
      },
      /*col_update=*/
      [&](const linalg::Vector& luu, const linalg::Vector& lv,
          linalg::Vector& next_lv) {
        kernel.LogApplyTranspose(luu, out.lse_cols);
        for (size_t j = 0; j < n; ++j) {
          next_lv[j] = (log_q[j] == kNegInf || out.lse_cols[j] == kNegInf)
                           ? kNegInf
                           : exponent * (log_q[j] - out.lse_cols[j]);
        }
        return LogPotentialDelta(next_lv, lv);
      }));
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
