#include "ot/kernel_factory.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

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

/// Generous upper bound on annealing stages — a schedule whose geometric
/// decay needs more than this many stages to reach the final ε (decay
/// pathologically close to 1, or an absurd initial/final ratio) is a
/// configuration error, not a workload.
constexpr size_t kMaxAnnealStages = 64;

/// The warm-store entry under `key` when the store is on and the stored
/// sizes fit the problem; a mismatch falls back to the next seed.
std::optional<core::CachedWarmStart> FetchStored(
    core::SolveCache* store, const core::SolveCacheKey& key) {
  if (store == nullptr) return std::nullopt;
  std::optional<core::CachedWarmStart> stored = store->FindWarmStart(key);
  if (!stored || stored->u.size() != key.rows ||
      stored->v.size() != key.cols) {
    return std::nullopt;
  }
  return stored;
}

template <typename K>
using Slot = std::shared_ptr<const typename K::Storage> core::CachedKernel::*;

/// Fetch-or-build for one concrete kernel type K whose storage lives in
/// CachedKernel::*slot.
template <typename K>
KernelBuild FetchOrBuild(Slot<K> slot, const linalg::CostProvider& cost,
                         const KernelSpec& spec, core::SolveCache* cache,
                         const core::SolveCacheKey& key) {
  std::optional<core::CachedKernel> hit;
  if (cache != nullptr) hit = cache->FindKernel(key);
  std::shared_ptr<const typename K::Storage> storage;
  std::shared_ptr<const std::vector<double>> support_costs;
  std::shared_ptr<const linalg::Matrix> dense_cost;
  bool cache_hit = false;
  if (hit && (*hit).*slot) {
    cache_hit = true;
    storage = (*hit).*slot;
    support_costs = hit->support_costs;
    dense_cost = hit->dense_cost;
  }
  const linalg::Matrix* matrix = cost.AsMatrix();
  if constexpr (!kIsSparseKernel<K> && !kIsLogKernel<K>) {
    if (matrix == nullptr) {
      if (!dense_cost) {
        dense_cost = std::make_shared<const linalg::Matrix>(
            linalg::MaterializeCostMatrix(cost));
      }
      matrix = dense_cost.get();
    }
  }
  if (!storage) {
    if constexpr (kIsSparseKernel<K>) {
      storage = K::FromCost(cost, spec.epsilon, spec.cutoff, spec.num_threads,
                            spec.pool)
                    .shared_storage();
    } else if constexpr (kIsLogKernel<K>) {
      storage = K::FromCost(cost, spec.epsilon, spec.num_threads, spec.pool)
                    .shared_storage();
    } else {
      storage = K::FromCost(*matrix, spec.epsilon, spec.num_threads, spec.pool)
                    .shared_storage();
    }
  }
  if constexpr (kIsSparseKernel<K>) {
    if (spec.gather_support_costs && !support_costs) {
      support_costs = std::make_shared<const std::vector<double>>(
          storage->GatherSupportCosts(cost));
    }
  }
  if (cache != nullptr && !cache_hit) {
    core::CachedKernel built;
    built.*slot = storage;
    built.support_costs = support_costs;
    built.dense_cost = dense_cost;
    cache->InsertKernel(key, std::move(built));
  }
  return KernelBuild{
      AnyKernel(std::in_place_type<K>, std::move(storage), spec.num_threads,
                spec.pool),
      cache_hit, std::move(support_costs), std::move(dense_cost)};
}

}  // namespace

core::SolveCacheKey KernelCacheKey(uint64_t cost_fingerprint, size_t rows,
                                   size_t cols, const KernelSpec& spec) {
  return core::MakeSolveCacheKey(cost_fingerprint, rows, cols, spec.epsilon,
                                 spec.sparse ? spec.cutoff : 0.0,
                                 spec.log_domain, /*salt=*/0, spec.precision,
                                 spec.sparse);
}

KernelBuild MakeKernel(const linalg::CostProvider& cost,
                       const KernelSpec& spec, core::SolveCache* cache,
                       const core::SolveCacheKey& key) {
  using core::CachedKernel;
  using linalg::DenseKernel;
  using linalg::DenseLogKernel;
  using linalg::SparseKernel;
  using linalg::SparseLogKernel;
  if (spec.precision == linalg::Precision::kFloat32) {
    if (spec.sparse && spec.log_domain) {
      return FetchOrBuild<SparseLogKernel<float>>(&CachedKernel::sparse_f32,
                                                  cost, spec, cache, key);
    }
    if (spec.sparse) {
      return FetchOrBuild<SparseKernel<float>>(&CachedKernel::sparse_f32,
                                               cost, spec, cache, key);
    }
    if (spec.log_domain) {
      return FetchOrBuild<DenseLogKernel<float>>(&CachedKernel::dense_f32,
                                                 cost, spec, cache, key);
    }
    return FetchOrBuild<DenseKernel<float>>(&CachedKernel::dense_f32, cost,
                                            spec, cache, key);
  }
  if (spec.sparse && spec.log_domain) {
    return FetchOrBuild<SparseLogKernel<double>>(&CachedKernel::sparse, cost,
                                                 spec, cache, key);
  }
  if (spec.sparse) {
    return FetchOrBuild<SparseKernel<double>>(&CachedKernel::sparse, cost,
                                              spec, cache, key);
  }
  if (spec.log_domain) {
    return FetchOrBuild<DenseLogKernel<double>>(&CachedKernel::dense, cost,
                                                spec, cache, key);
  }
  return FetchOrBuild<DenseKernel<double>>(&CachedKernel::dense, cost, spec,
                                           cache, key);
}


Status CheckKernelSupport(const AnyKernel& kernel, const linalg::Vector& p,
                          const linalg::Vector* q, const char* where) {
  return std::visit(
      [&](const auto& k) {
        if constexpr (kIsSparseKernel<std::decay_t<decltype(k)>>) {
          return CheckTruncatedKernelSupport(*k.shared_storage(), &p, q,
                                             where);
        } else {
          return Status::OK();
        }
      },
      kernel);
}

Result<SinkhornScaling> RunEngine(const AnyKernel& kernel,
                                  const linalg::Vector& p,
                                  const linalg::Vector& q,
                                  const SinkhornOptions& options,
                                  const linalg::Vector* warm_u,
                                  const linalg::Vector* warm_v) {
  return std::visit(
      [&](const auto& k) -> Result<SinkhornScaling> {
        if constexpr (kIsLogKernel<std::decay_t<decltype(k)>>) {
          OTCLEAN_ASSIGN_OR_RETURN(
              SinkhornLogScaling s,
              RunSinkhornLogScaling(k, p, q, options, warm_u, warm_v));
          return SinkhornScaling{std::move(s.lu), std::move(s.lv),
                                 s.iterations, s.converged};
        } else {
          return RunSinkhornScaling(k, p, q, options, warm_u, warm_v);
        }
      },
      kernel);
}

linalg::Vector LogPotentials(const linalg::Vector& scalings) {
  linalg::Vector out(scalings.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = scalings[i] > 0.0 ? std::log(scalings[i]) : kNegInf;
  }
  return out;
}

linalg::Vector ExpPotentials(const linalg::Vector& log_potentials) {
  linalg::Vector out(log_potentials.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = log_potentials[i] == kNegInf ? 0.0 : std::exp(log_potentials[i]);
  }
  ClampScaling(out);
  return out;
}

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

size_t SolveSeed::Finish(const linalg::Vector& u_final,
                         const linalg::Vector& v_final, size_t iterations,
                         bool converged) const {
  if (store == nullptr || !converged) return 0;
  store->StoreWarmStart(key, log_domain ? ExpPotentials(u_final) : u_final,
                        log_domain ? ExpPotentials(v_final) : v_final,
                        iterations);
  if (!from_store || cold_iterations <= iterations) return 0;
  store->RecordWarmSavings(cold_iterations - iterations);
  return cold_iterations - iterations;
}

Result<SolveSeed> SeedSolve(const linalg::CostProvider& cost,
                            const linalg::Vector& p, const linalg::Vector& q,
                            const SinkhornOptions& options,
                            const KernelSpec& spec,
                            const linalg::Vector* warm_u,
                            const linalg::Vector* warm_v, const char* where) {
  SolveSeed seed;
  seed.key = KernelCacheKey(options.cache_cost_fingerprint, cost.rows(),
                            cost.cols(), spec);
  seed.log_domain = spec.log_domain;
  if (options.solve_cache != nullptr && seed.key.valid() &&
      options.cache_warm_start) {
    seed.store = options.solve_cache;
  }
  // Linear scalings until the end, where the log paths lift them once.
  std::optional<linalg::Vector> u, v;
  if (warm_u != nullptr || warm_v != nullptr) {
    if (warm_u != nullptr) u = *warm_u;
    if (warm_v != nullptr) v = *warm_v;
  } else if (std::optional<core::CachedWarmStart> stored =
                 FetchStored(seed.store, seed.key)) {
    u = std::move(stored->u);
    v = std::move(stored->v);
    seed.from_store = true;
    seed.cold_iterations = stored->cold_iterations;
  } else if (options.epsilon_schedule.enabled()) {
    OTCLEAN_RETURN_NOT_OK(ValidateSchedule(where, options));
    const EpsilonSchedule& sched = options.epsilon_schedule;
    u = linalg::Vector::Ones(cost.rows());
    v = linalg::Vector::Ones(cost.cols());
    // A dense linear stage on a function-backed provider runs on a
    // cutoff-0 CSR kernel (same support, streamed build) so no stage
    // materializes the cost matrix.
    KernelSpec stage = spec;
    stage.sparse =
        spec.sparse || (!spec.log_domain && cost.AsMatrix() == nullptr);
    stage.cutoff = spec.sparse ? spec.cutoff : 0.0;
    stage.gather_support_costs = false;
    SinkhornOptions stage_options = options;
    stage_options.tolerance = sched.stage_tolerance;
    stage_options.max_iterations = sched.stage_max_iterations;
    for (double eps = sched.initial_epsilon; eps > options.epsilon;) {
      OTCLEAN_RETURN_NOT_OK(
          CheckStop(options.cancel_token, options.deadline, where));
      stage.epsilon = stage_options.epsilon = eps;
      const KernelBuild build = MakeKernel(
          cost, stage, options.solve_cache,
          KernelCacheKey(options.cache_cost_fingerprint, cost.rows(),
                         cost.cols(), stage));
      // Stages only move potentials: no plan, no cost, no support check,
      // and never the warm-start store — stage potentials are half-baked.
      if (stage.log_domain) {
        *u = LogPotentials(*u);
        *v = LogPotentials(*v);
      }
      OTCLEAN_ASSIGN_OR_RETURN(
          SinkhornScaling s,
          RunEngine(build.kernel, p, q, stage_options, &*u, &*v));
      *u = stage.log_domain ? ExpPotentials(s.u) : std::move(s.u);
      *v = stage.log_domain ? ExpPotentials(s.v) : std::move(s.v);
      seed.anneal_stages.push_back({eps, s.iterations, s.converged});
      const double next = std::max(options.epsilon, eps * sched.decay);
      RescalePotentials(*u, eps / next);
      RescalePotentials(*v, eps / next);
      eps = next;
    }
  }
  if (spec.log_domain) {
    if (u) u = LogPotentials(*u);
    if (v) v = LogPotentials(*v);
  }
  seed.u = std::move(u);
  seed.v = std::move(v);
  return seed;
}

}  // namespace otclean::ot
