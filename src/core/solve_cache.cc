#include "core/solve_cache.h"

#include "common/hash.h"
#include "core/fault_injector.h"
#include "linalg/simd.h"

namespace otclean::core {

namespace {

template <typename M>
size_t MatrixBytes(const std::shared_ptr<const M>& m) {
  return m ? m->size() * sizeof(m->data()[0]) : 0;
}

}  // namespace

SolveCacheKey MakeSolveCacheKey(uint64_t cost_fingerprint, size_t rows,
                                size_t cols, double epsilon, double truncation,
                                bool log_domain, uint64_t salt,
                                linalg::Precision precision, bool sparse) {
  SolveCacheKey key;
  if (cost_fingerprint == 0) return key;  // invalid: caching disabled
  key.rows = rows;
  key.cols = cols;
  key.epsilon = epsilon;
  key.truncation = truncation;
  key.log_domain = log_domain;
  key.sparse = sparse || truncation > 0.0;
  key.simd_isa = static_cast<uint8_t>(linalg::simd::ActiveIsa());
  key.precision = static_cast<uint8_t>(precision);
  uint64_t h = HashMix(kHashSeed, cost_fingerprint);
  h = HashMix(h, salt);
  h = HashMix(h, key.rows);
  h = HashMix(h, key.cols);
  h = HashMixDouble(h, key.epsilon);
  h = HashMixDouble(h, key.truncation);
  h = HashMix(h, (key.log_domain ? 2u : 0u) | (key.sparse ? 1u : 0u));
  h = HashMix(h, key.simd_isa);
  h = HashMix(h, key.precision);
  key.content = h == 0 ? 1 : h;
  return key;
}

size_t CachedKernel::MemoryBytes() const {
  size_t bytes = MatrixBytes(dense) + MatrixBytes(dense_f32) +
                 MatrixBytes(dense_cost);
  if (sparse) bytes += sparse->MemoryBytes();
  if (sparse_f32) bytes += sparse_f32->MemoryBytes();
  if (support_costs) bytes += support_costs->size() * sizeof(double);
  return bytes;
}

bool CachedKernel::InUse() const {
  // use_count > 1 ⇒ a handle lives outside the cache's own entry. Racy in
  // general, but we only read it under the cache mutex, and every external
  // handle was created under that same mutex — a transient over-count
  // (solve just finished) merely delays eviction one round.
  return (dense && dense.use_count() > 1) ||
         (sparse && sparse.use_count() > 1) ||
         (dense_f32 && dense_f32.use_count() > 1) ||
         (sparse_f32 && sparse_f32.use_count() > 1) ||
         (support_costs && support_costs.use_count() > 1) ||
         (dense_cost && dense_cost.use_count() > 1);
}

SolveCacheStats DeltaStats(const SolveCacheStats& before,
                           const SolveCacheStats& after) {
  SolveCacheStats d = after;
  d.kernel_hits -= before.kernel_hits;
  d.kernel_misses -= before.kernel_misses;
  d.insertions -= before.insertions;
  d.evictions -= before.evictions;
  d.table_hits -= before.table_hits;
  d.table_misses -= before.table_misses;
  // entries / bytes_cached / bytes_pinned are gauges: keep `after`.
  return d;
}

void SolveCache::Touch(Lru::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void SolveCache::EnforceBudget() {
  if (byte_budget_ == 0) return;
  auto it = lru_.end();
  while (bytes_cached_ > byte_budget_ && it != lru_.begin()) {
    --it;
    if (it->kernel.InUse()) continue;  // pinned: counted, not evictable
    bytes_cached_ -= it->bytes;
    index_.erase(it->key);
    it = lru_.erase(it);
    ++counters_.evictions;
  }
}

std::optional<CachedKernel> SolveCache::FindKernel(const SolveCacheKey& key) {
  if (!key.valid()) return std::nullopt;
  MutexLock lock(mu_);
  auto found = index_.find(key);
  if (found == index_.end()) {
    ++counters_.kernel_misses;
    return std::nullopt;
  }
  ++counters_.kernel_hits;
  Touch(found->second);
  return found->second->kernel;
}

CachedKernel SolveCache::InsertKernel(const SolveCacheKey& key,
                                      CachedKernel kernel) {
  if (!key.valid() || kernel.empty()) return kernel;
  // FaultSite::kCacheInsert: the insert fails before any entry is
  // created; the caller keeps its private kernel and the request degrades
  // to uncached, never corrupt.
  if (fault_injector_ != nullptr &&
      fault_injector_->ShouldFire(FaultSite::kCacheInsert)) {
    return kernel;
  }
  MutexLock lock(mu_);
  auto found = index_.find(key);
  if (found != index_.end()) {  // lost the race: share theirs
    Touch(found->second);
    return found->second->kernel;
  }
  const size_t bytes = kernel.MemoryBytes();
  lru_.push_front(Entry{key, std::move(kernel), bytes});
  index_.emplace(key, lru_.begin());
  bytes_cached_ += bytes;
  ++counters_.insertions;
  // Copy the handle out *before* enforcing the budget: the copy pins the
  // fresh entry (the caller is about to solve on it), and keeps the return
  // safe even if eviction removes the entry itself.
  CachedKernel resident = lru_.front().kernel;
  EnforceBudget();
  return resident;
}

void SolveCache::RecordTableLookup(bool hit) {
  MutexLock lock(mu_);
  if (hit) {
    ++counters_.table_hits;
  } else {
    ++counters_.table_misses;
  }
}

SolveCacheStats SolveCache::Stats() const {
  MutexLock lock(mu_);
  SolveCacheStats s = counters_;
  s.entries = lru_.size();
  s.bytes_cached = bytes_cached_;
  s.bytes_pinned = 0;
  for (const Entry& e : lru_) {
    if (e.kernel.InUse()) s.bytes_pinned += e.bytes;
  }
  return s;
}

}  // namespace otclean::core
