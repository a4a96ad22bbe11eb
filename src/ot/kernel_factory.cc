#include "ot/kernel_factory.h"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "linalg/simd.h"

namespace otclean::ot {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Guards the scaling vectors against overflow and junk, under the policy
/// the relaxed update `linalg::simd::ScalingUpdate` applies to every
/// scaling it writes: +inf and any overflow clamp to
/// `linalg::simd::kScalingCeiling`, keeping u·K·v finite. A NaN (a 0/0 —
/// no mass demanded, none reachable) or a negative entry means "no mass"
/// and collapses to 0: mapping it to the clamp CEILING, as this function
/// once did, inflated u·K·v and transport_cost with mass that never
/// existed.
void ClampScaling(linalg::Vector& s) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (std::isnan(s[i]) || s[i] < 0.0) {
      s[i] = 0.0;
    } else if (s[i] > linalg::simd::kScalingCeiling) {
      s[i] = linalg::simd::kScalingCeiling;
    }
  }
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
            linalg::MaterializeCostMatrix(cost, spec.num_threads, spec.pool));
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
                                 std::move(s.lse_cols), s.iterations,
                                 s.converged};
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

}  // namespace otclean::ot
