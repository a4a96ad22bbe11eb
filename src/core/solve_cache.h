#ifndef OTCLEAN_CORE_SOLVE_CACHE_H_
#define OTCLEAN_CORE_SOLVE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "linalg/matrix.h"
#include "linalg/precision.h"
#include "linalg/transport_kernel.h"

namespace otclean::core {

class FaultInjector;

/// Identity of a solve's immutable inputs — everything that determines the
/// built Gibbs kernel bit-for-bit. `content` is a stable FNV-1a hash of the
/// cost fingerprint (CostFunction::Fingerprint plus any caller salt, e.g.
/// the active-cell lists a FastOTClean solve restricts the domain to);
/// the remaining fields are kept verbatim so a hash collision can never
/// alias two solves with different dimensions, ε, truncation, domain
/// (log vs linear), SIMD tier or precision — equality checks every field.
///
/// The SIMD tier is part of the key because the scaling loop's results are
/// only bit-identical *within* one instruction set; a cache shared across
/// dispatch tiers (tests force-overriding the ISA) must not mix them.
/// The storage precision (linalg/precision.h) is part of the key for the
/// same reason — an f32 kernel is a different artifact than its f64 twin,
/// and the bit-identity contract holds per (tier, precision).
struct SolveCacheKey {
  uint64_t content = 0;  ///< 0 = invalid ("don't cache this solve")
  uint64_t rows = 0;
  uint64_t cols = 0;
  double epsilon = 0.0;
  double truncation = 0.0;
  bool log_domain = false;
  bool sparse = false;
  uint8_t simd_isa = 0;
  uint8_t precision = 0;  ///< static_cast of linalg::Precision

  bool valid() const { return content != 0; }
  bool operator==(const SolveCacheKey& o) const {
    return content == o.content && rows == o.rows && cols == o.cols &&
           epsilon == o.epsilon && truncation == o.truncation &&
           log_domain == o.log_domain && sparse == o.sparse &&
           simd_isa == o.simd_isa && precision == o.precision;
  }
};

/// Builds a key from the solve inputs. A zero `cost_fingerprint` yields an
/// invalid key (content 0), which every cache operation treats as a no-op —
/// the path for unfingerprintable costs (LambdaCost). `salt` folds in any
/// extra caller identity. `sparse` names CSR kernel storage (a positive
/// `truncation` implies it; a cutoff-0 CSR kernel must pass it, or it
/// would alias the dense kernel of the same cost and ε — ot::MakeKernel's
/// keys always do); the SIMD tier is read from the runtime dispatcher;
/// `precision` is the storage tier the solve iterates on.
SolveCacheKey MakeSolveCacheKey(
    uint64_t cost_fingerprint, size_t rows, size_t cols, double epsilon,
    double truncation, bool log_domain, uint64_t salt = 0,
    linalg::Precision precision = linalg::Precision::kFloat64,
    bool sparse = false);

/// Shared handles to one solve's immutable built artifacts. Exactly one of
/// `dense`/`sparse`/`dense_f32`/`sparse_f32` is set (the kernel
/// K = e^{−C/ε}, or its log L = −C/ε — the key's log_domain flag says
/// which; the key's precision flag picks the f32 pair); the others are
/// optional companions the same solve would otherwise rebuild:
/// `support_costs` is the GatherSupportCosts cache aligned with the sparse
/// kernel's values, `dense_cost` the materialized cost matrix of the dense
/// path. Everything is shared_ptr-held and immutable, so a hit hands out
/// the very same storage the miss built — arithmetic over it is
/// bit-identical by construction. ot::MakeKernel owns the kernel → slot
/// mapping.
struct CachedKernel {
  std::shared_ptr<const linalg::DenseStorage<double>> dense;
  std::shared_ptr<const linalg::SparseStorage<double>> sparse;
  std::shared_ptr<const linalg::DenseStorage<float>> dense_f32;
  std::shared_ptr<const linalg::SparseStorage<float>> sparse_f32;
  std::shared_ptr<const std::vector<double>> support_costs;
  std::shared_ptr<const linalg::Matrix> dense_cost;

  bool empty() const {
    return !dense && !sparse && !dense_f32 && !sparse_f32;
  }
  /// Approximate heap footprint of all held storages.
  size_t MemoryBytes() const;
  /// True when any handle is also held outside the cache (a solve is
  /// running on it). Pinned entries are charged to the budget but never
  /// evicted — eviction would not free the memory anyway.
  bool InUse() const;
};

/// Counters (monotonic) and gauges for a cache. `bytes_pinned` is the
/// portion of `bytes_cached` currently in use by running solves.
/// `table_*` fold in the CLI batch table cache (a lookup cache that
/// predates this one) so `--report` has one place for all cross-request
/// reuse.
struct SolveCacheStats {
  size_t kernel_hits = 0;
  size_t kernel_misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;
  size_t entries = 0;       ///< gauge
  size_t bytes_cached = 0;  ///< gauge
  size_t bytes_pinned = 0;  ///< gauge
  size_t table_hits = 0;
  size_t table_misses = 0;
};

/// after − before for the monotonic counters; gauges keep `after`'s value.
/// RepairScheduler uses this to report per-batch activity on a cache that
/// outlives the batch.
SolveCacheStats DeltaStats(const SolveCacheStats& before,
                           const SolveCacheStats& after);

/// Process-wide, thread-safe, memory-budgeted LRU over solve artifacts —
/// shared immutable kernel storages (CachedKernel), one entry per key, so
/// repeat requests skip the kernel build.
///
/// All RAM held here is evictable cache (kivaloo's design rule): a strict
/// LRU walk drops entries until the byte budget holds, skipping only
/// entries whose storages are pinned by running solves (those are counted
/// against the budget but eviction wouldn't free them). Budget 0 means
/// unlimited.
///
/// Thread safety: every operation takes one internal mutex; the returned
/// handles are immutable shared_ptrs, safe to use lock-free afterwards.
/// The discipline is TSA-enforced (common/thread_annotations.h): every
/// mutable field is `OTCLEAN_GUARDED_BY(mu_)`, the public surface is
/// `OTCLEAN_EXCLUDES(mu_)`, and the `Locked`-style private helpers are
/// `OTCLEAN_REQUIRES(mu_)` — dropping the lock from any method is a
/// compile error under clang's `-Wthread-safety` CI leg.
class SolveCache {
 public:
  explicit SolveCache(size_t byte_budget = 0)
      : byte_budget_(byte_budget) {}

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// FindKernel returns the shared storages on a hit (bumping the entry
  /// to most-recently-used) and counts a miss otherwise; invalid keys are
  /// silent misses that touch no counter.
  std::optional<CachedKernel> FindKernel(const SolveCacheKey& key)
      OTCLEAN_EXCLUDES(mu_);

  /// Inserts the artifacts a miss just built. On an insert race (another
  /// thread populated the key first) the resident entry wins and is
  /// returned, so concurrent solves of one key converge on shared storage
  /// either way. Returns `kernel` unchanged for invalid keys.
  CachedKernel InsertKernel(const SolveCacheKey& key, CachedKernel kernel)
      OTCLEAN_EXCLUDES(mu_);

  /// Folds a CLI table-cache lookup into the stats.
  void RecordTableLookup(bool hit) OTCLEAN_EXCLUDES(mu_);

  /// Safe to poll from any thread at any time — including while a batch is
  /// mid-flight on the same cache (solve_cache_test pins that race under
  /// TSan). EXCLUDES(mu_): callers must not already hold the cache mutex
  /// (they cannot — it is private — but the annotation keeps the method
  /// itself honest about taking the lock).
  SolveCacheStats Stats() const OTCLEAN_EXCLUDES(mu_);

  size_t byte_budget() const { return byte_budget_; }

  /// Fault-injection hook (core/fault_injector.h): when set, InsertKernel
  /// consults FaultSite::kCacheInsert and a firing visit makes the insert
  /// fail *atomically* — no entry is created or modified, no counter
  /// moves, and the caller's freshly built kernel is returned so the solve
  /// proceeds uncached. Null (the default) costs nothing. Borrowed; set
  /// before dispatching instrumented work.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }

 private:
  struct Entry {
    SolveCacheKey key;
    CachedKernel kernel;
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const SolveCacheKey& k) const {
      return static_cast<size_t>(k.content);
    }
  };
  using Lru = std::list<Entry>;

  /// Moves the entry to the LRU front.
  void Touch(Lru::iterator it) OTCLEAN_REQUIRES(mu_);
  /// Evicts from the LRU tail (skipping pinned entries) until the budget
  /// holds.
  void EnforceBudget() OTCLEAN_REQUIRES(mu_);

  const size_t byte_budget_;

  mutable Mutex mu_;
  Lru lru_ OTCLEAN_GUARDED_BY(mu_);  ///< front = most recently used
  std::unordered_map<SolveCacheKey, Lru::iterator, KeyHash> index_
      OTCLEAN_GUARDED_BY(mu_);
  size_t bytes_cached_ OTCLEAN_GUARDED_BY(mu_) = 0;
  /// Gauges unused; filled on Stats() read.
  SolveCacheStats counters_ OTCLEAN_GUARDED_BY(mu_);
  /// Deliberately NOT guarded by mu_: InsertKernel consults it before
  /// taking the lock, under the "set before dispatching instrumented
  /// work, never while solves are running" contract of set_fault_injector.
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace otclean::core

#endif  // OTCLEAN_CORE_SOLVE_CACHE_H_
