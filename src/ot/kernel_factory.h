#ifndef OTCLEAN_OT_KERNEL_FACTORY_H_
#define OTCLEAN_OT_KERNEL_FACTORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/result.h"
#include "core/solve_cache.h"
#include "linalg/cost_provider.h"
#include "linalg/log_transport_kernel.h"
#include "linalg/matrix.h"
#include "linalg/precision.h"
#include "linalg/transport_kernel.h"
#include "linalg/vector.h"
#include "ot/sinkhorn.h"

namespace otclean::ot {

/// Any concrete transport kernel: dense/CSR × linear/log × f64/f32.
using AnyKernel = std::variant<
    linalg::DenseKernel<double>, linalg::SparseKernel<double>,
    linalg::DenseLogKernel<double>, linalg::SparseLogKernel<double>,
    linalg::DenseKernel<float>, linalg::SparseKernel<float>,
    linalg::DenseLogKernel<float>, linalg::SparseLogKernel<float>>;

/// Compile-time shape of an AnyKernel alternative, for std::visit bodies.
template <typename K>
inline constexpr bool kIsSparseKernel =
    std::is_base_of_v<linalg::SparsePattern, typename K::Storage>;
template <typename K>
inline constexpr bool kIsLogKernel =
    std::is_base_of_v<linalg::LogTransportKernel, K>;

/// Which kernel to build, and how the built kernel runs.
struct KernelSpec {
  double epsilon = 0.0;
  /// CSR storage truncated at `cutoff` (0 keeps every entry); dense when
  /// false.
  bool sparse = false;
  double cutoff = 0.0;
  /// Store L = −C/ε for the log-domain engine instead of K = e^{−C/ε}.
  bool log_domain = false;
  linalg::Precision precision = linalg::Precision::kFloat64;
  size_t num_threads = 0;
  linalg::ThreadPool* pool = nullptr;
  /// Sparse kernels only: also provide C at the kernel's support, for
  /// callers that evaluate ⟨C, π⟩ repeatedly (FastOTClean's outer loop).
  bool gather_support_costs = false;
};

/// A kernel from MakeKernel plus the cost artifacts that came with it.
struct KernelBuild {
  AnyKernel kernel;
  /// The kernel's storage came out of the solve cache (nothing was
  /// streamed or exponentiated for it).
  bool cache_hit = false;
  /// C at every stored entry, aligned with the CSR values (sparse kernels
  /// built with KernelSpec::gather_support_costs; null otherwise).
  std::shared_ptr<const std::vector<double>> support_costs;
  /// The materialized cost of a dense linear kernel built from a provider
  /// without an in-memory matrix (null otherwise) — the zero-copy source
  /// for ⟨C, π⟩.
  std::shared_ptr<const linalg::Matrix> dense_cost;
};

/// Cache key of the kernel `spec` describes for a cost with the given
/// fingerprint (0 = uncacheable, an invalid key). The key's `sparse` flag
/// names the storage built, so a cutoff-0 CSR kernel never aliases the
/// dense kernel of the same (cost, ε).
core::SolveCacheKey KernelCacheKey(uint64_t cost_fingerprint, size_t rows,
                                   size_t cols, const KernelSpec& spec);

/// The one kernel factory: maps (sparse, log_domain, precision) to the
/// concrete kernel and to its core::CachedKernel slot, adopts the cached
/// storage on a hit (bit-identical to rebuilding — the same bytes), and
/// otherwise builds the kernel and publishes it with its companions.
/// Companions a hit lacks are built locally and not published. `cache`
/// may be null; an invalid `key` bypasses the cache.
///
/// Dense linear kernels are exponentiated from an in-memory cost: the
/// provider's own matrix when it has one, else a materialized copy
/// (KernelBuild::dense_cost). Every other kernel streams the provider.
KernelBuild MakeKernel(const linalg::CostProvider& cost,
                       const KernelSpec& spec, core::SolveCache* cache,
                       const core::SolveCacheKey& key);

/// Rejects a truncated kernel that would strand marginal mass (see
/// CheckTruncatedKernelSupport; `q` null checks rows only). Dense kernels
/// keep every entry and always pass.
Status CheckKernelSupport(const AnyKernel& kernel, const linalg::Vector& p,
                          const linalg::Vector* q, const char* where);

/// The one inner solve on any kernel: RunSinkhornScaling on the linear
/// kernels, RunSinkhornLogScaling on the log kernels. Warm and returned
/// potentials are in the kernel's own domain — scalings or log-potentials
/// — and so is the returned `ktu`: Kᵀu, or the column log-sum-exp.
Result<SinkhornScaling> RunEngine(const AnyKernel& kernel,
                                  const linalg::Vector& p,
                                  const linalg::Vector& q,
                                  const SinkhornOptions& options,
                                  const linalg::Vector* warm_u,
                                  const linalg::Vector* warm_v);

/// The conversions between linear scalings and log-potentials: 0 ↔ −inf
/// marks "no mass"; ExpPotentials clamps as the linear engine loop does.
linalg::Vector LogPotentials(const linalg::Vector& scalings);
linalg::Vector ExpPotentials(const linalg::Vector& log_potentials);

}  // namespace otclean::ot

#endif  // OTCLEAN_OT_KERNEL_FACTORY_H_
