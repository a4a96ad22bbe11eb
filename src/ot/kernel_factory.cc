#include "ot/kernel_factory.h"

#include <optional>
#include <utility>

namespace otclean::ot {

namespace {

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

}  // namespace otclean::ot
