#ifndef OTCLEAN_LINALG_PARALLEL_FOR_H_
#define OTCLEAN_LINALG_PARALLEL_FOR_H_

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace otclean::linalg {

/// Resolves a requested thread count: 0 means "use hardware concurrency"
/// (never less than 1).
inline size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// Minimum per-thread work (loop indices) below which dispatching to
/// workers costs more than it saves; ranges smaller than this run inline.
inline constexpr size_t kMinParallelGrain = 256;

/// Minimum scalar operations per worker before threading pays for the
/// dispatch. Callers whose loop indices carry non-unit work (e.g. one
/// matrix row of n multiplies) should derive their grain from this.
///
/// Measured: bench_kernel_parallel sweeps serial against pooled
/// Apply+ApplyTranspose by kernel size (BENCH_parallel_cutoff.json; 4
/// cores, AVX-512, Release). With subnormals flushed and the pool's lanes
/// free, a four-way split loses below ~100k nonzeros (0.3-0.7x on
/// cache-resident kernels: waking workers costs more than the few
/// microseconds of arithmetic they share) and wins ~2x from ~500k. When
/// the host's cores are busy it loses at every size below ~2M. At 2^18 a
/// kernel splits in two from ~0.5M nonzeros and four ways from ~1M, so
/// the paper's 101×200 kernel runs inline and a 4.1M-nonzero one keeps
/// its four chunks.
inline constexpr size_t kMinParallelWork = size_t{1} << 18;

/// Index grain for a loop whose every index costs ~`work_per_index` scalar
/// ops: enough indices per worker to clear kMinParallelWork.
inline size_t GrainForWork(size_t work_per_index) {
  if (work_per_index == 0) work_per_index = 1;
  const size_t grain = kMinParallelWork / work_per_index;
  return grain == 0 ? 1 : grain;
}

/// The contiguous-chunk decomposition both ParallelFor execution modes
/// (pooled, inline) derive from. Computing it in exactly one place is what
/// makes the modes bit-identical: chunk boundaries depend only on
/// (n, threads, grain), never on who runs the chunks.
struct ChunkPlan {
  size_t chunk = 0;       ///< indices per chunk (chunk c = [c·chunk, …)).
  size_t num_chunks = 0;  ///< non-empty chunks covering [0, n).
};

inline ChunkPlan PlanChunks(size_t n, size_t threads, size_t grain) {
  ChunkPlan plan;
  if (n == 0) return plan;
  if (grain == 0) grain = 1;
  // Cap workers so none gets less than `grain` indices.
  threads = std::min(threads, std::max<size_t>(1, n / grain));
  plan.chunk = threads <= 1 ? n : (n + threads - 1) / threads;
  plan.num_chunks = (n + plan.chunk - 1) / plan.chunk;
  return plan;
}

class ThreadPool;

/// Runs `chunk_fn(ctx, c)` for every c in [0, num_chunks) on `pool`
/// (ThreadPool::RunChunks; defined in thread_pool.cc so this header does
/// not need the pool's definition).
void RunPoolChunks(ThreadPool* pool, size_t num_chunks,
                   void (*chunk_fn)(void*, size_t), void* ctx);

/// Runs `fn(begin, end)` over the contiguous chunks of PlanChunks(n,
/// threads, grain). `threads` must already be resolved (>= 1); it is capped
/// so no chunk gets less than `grain` indices. With a `pool` (borrowed; see
/// thread_pool.h) the chunks run on its workers and the calling thread;
/// with a null pool they run inline on the calling thread, in chunk order.
/// Chunks are disjoint, so any op writing only to its own index range is
/// deterministic regardless of the thread count or of who runs the chunks.
template <typename Fn>
void ParallelFor(size_t n, size_t threads, Fn&& fn,
                 size_t grain = kMinParallelGrain, ThreadPool* pool = nullptr) {
  const ChunkPlan plan = PlanChunks(n, threads, grain);
  const auto run_chunk = [&](size_t c) {
    const size_t begin = c * plan.chunk;
    fn(begin, std::min(n, begin + plan.chunk));
  };
  if (pool == nullptr || plan.num_chunks <= 1) {
    for (size_t c = 0; c < plan.num_chunks; ++c) run_chunk(c);
    return;
  }
  using RunChunk = decltype(run_chunk);
  RunPoolChunks(
      pool, plan.num_chunks,
      [](void* ctx, size_t c) { (*static_cast<const RunChunk*>(ctx))(c); },
      const_cast<void*>(static_cast<const void*>(&run_chunk)));
}

/// Rows per reduction block. Fixed independently of the thread count so
/// that blocked reductions add the same partial sums in the same order no
/// matter how many threads run — threads=1 and threads=N are bit-identical.
inline constexpr size_t kReduceBlockRows = 256;

/// Sums `block_fn(begin, end)` over fixed kReduceBlockRows-sized blocks of
/// [0, n), partials combined serially in block order. Neither the block
/// decomposition nor the accumulation depends on `threads` or `pool`, so
/// the result is bit-compatible across thread counts and execution modes.
template <typename BlockFn>
double BlockedReduce(size_t n, size_t threads, BlockFn&& block_fn,
                     ThreadPool* pool = nullptr) {
  if (n == 0) return 0.0;
  const size_t num_blocks = (n + kReduceBlockRows - 1) / kReduceBlockRows;
  std::vector<double> partials(num_blocks, 0.0);
  ParallelFor(
      num_blocks, threads,
      [&](size_t b_begin, size_t b_end) {
        for (size_t b = b_begin; b < b_end; ++b) {
          const size_t begin = b * kReduceBlockRows;
          partials[b] = block_fn(begin, std::min(n, begin + kReduceBlockRows));
        }
      },
      /*grain=*/1, pool);
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_PARALLEL_FOR_H_
