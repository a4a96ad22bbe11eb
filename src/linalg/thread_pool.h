#ifndef OTCLEAN_LINALG_THREAD_POOL_H_
#define OTCLEAN_LINALG_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "linalg/fp_env.h"
#include "linalg/parallel_for.h"

namespace otclean::linalg {

/// A persistent worker pool for the kernel primitives. A ThreadPool is
/// created once (per solve, or shared across solves by the caller) and
/// reuses the same workers for every dispatch, so an entire Sinkhorn run —
/// thousands of Apply/ApplyTranspose calls — costs one thread startup
/// total. ParallelFor/BlockedReduce (parallel_for.h) take the pool as their
/// last argument; without one they run the same chunks inline.
///
/// Determinism: the pool never decides *what* a chunk computes, only which
/// OS thread runs it. ParallelFor uses the exact same chunk decomposition
/// with or without a pool, and chunks write disjoint index ranges, so
/// pooled results are bit-identical to inline (serial) ones.
///
/// Concurrent dispatch: any number of threads may call RunChunks on the
/// same pool at the same time (one repair job per dispatcher — the
/// RepairScheduler's sharing model). Each dispatch registers a job in a
/// small intrusive job list; workers pull chunks from whichever live jobs
/// still have unclaimed work, and every dispatcher runs its own job's
/// chunks too, so a job is never starved by its neighbours. Because the
/// chunk decomposition of a dispatch depends only on (n, threads, grain) —
/// never on what else shares the pool — per-job results stay bit-identical
/// whether the pool is private, shared sequentially, or shared by
/// concurrent dispatchers.
///
/// FP mode: a worker runs a job's chunks in the dispatching thread's
/// floating-point control mode (fp_env.h), captured at dispatch like the
/// stop flag, and restores its own mode afterwards. Workers are created —
/// and would otherwise inherit their FP mode — by whichever thread first
/// dispatched, so without this a chunk's subnormal handling, and with it
/// the pooled ≡ inline guarantee, would depend on who runs the chunk.
class ThreadPool {
 public:
  /// Sizes the pool at `ResolveThreadCount(num_threads)` lanes (the
  /// dispatching thread is one of them). 0 = hardware concurrency; 1 = no
  /// workers, every Run executes inline. Workers start lazily on the
  /// first dispatch with more than one chunk, so pools created for solves
  /// that never exceed the parallel grain cost nothing.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency including the dispatching thread (>= 1).
  size_t num_threads() const { return num_threads_; }

  /// Runs `chunk_fn(ctx, c)` for every c in [0, num_chunks) across the
  /// workers and the calling thread; returns once all chunks completed.
  /// Chunks are claimed dynamically, so `chunk_fn` must be safe to run for
  /// any chunk on any participating thread (disjoint outputs). Safe to
  /// call from multiple threads concurrently; each call is an independent
  /// job and returns when exactly its own chunks have completed.
  void RunChunks(size_t num_chunks, void (*chunk_fn)(void*, size_t),
                 void* ctx) OTCLEAN_EXCLUDES(mutex_);

  /// Installs `flag` as the calling thread's cooperative stop flag for the
  /// scope's duration (RAII; nests by saving the previous flag). Every
  /// dispatch issued from this thread captures the flag into its job; once
  /// the flag reads true, participants — dispatcher and workers alike —
  /// keep *claiming and counting* chunks but skip executing them, so the
  /// dispatch drains immediately. The chunk decomposition and completion
  /// accounting are untouched: a stop can only abort a dispatch (whose
  /// output the solve then discards), never alter what an unstopped
  /// dispatch computes — completed solves stay bit-identical.
  class ScopedStopFlag {
   public:
    explicit ScopedStopFlag(const std::atomic<bool>* flag);
    ~ScopedStopFlag();
    ScopedStopFlag(const ScopedStopFlag&) = delete;
    ScopedStopFlag& operator=(const ScopedStopFlag&) = delete;

   private:
    const std::atomic<bool>* previous_;
  };

  /// The calling thread's installed stop flag (null when none).
  static const std::atomic<bool>* CurrentStopFlag();

  /// Fault-injection/test instrumentation: `hook(ctx)` runs before every
  /// chunk execution on every participating thread (core::FaultInjector
  /// uses it to delay a worker at the Nth chunk). Install before work is
  /// dispatched and uninstall (null) after it drains — the two atomics are
  /// published independently. Null by default; costs one relaxed load per
  /// chunk when unset.
  using ChunkHook = void (*)(void*);
  static void SetChunkHook(ChunkHook hook, void* ctx);

 private:
  /// One in-flight dispatch. Lives on its dispatcher's stack; linked into
  /// jobs_head_ for the duration of the RunChunks call. All fields except
  /// next_chunk (claimed lock-free) and the immutable dispatch description
  /// (chunk_fn/ctx/num_chunks/stop/fp_mode, written before publication)
  /// are guarded by mutex_ — TSA cannot express "guarded by the owning pool's
  /// mutex_" on a stack-allocated node (and the single-threaded inline
  /// path in RunChunks legitimately uses an unpublished Job lock-free), so
  /// the mutable fields document the discipline instead of annotating it.
  struct Job {
    void (*chunk_fn)(void*, size_t) = nullptr;
    void* ctx = nullptr;
    size_t num_chunks = 0;
    std::atomic<size_t> next_chunk{0};
    size_t done_chunks = 0;     ///< chunks done; guarded by pool mutex_.
    size_t active_workers = 0;  ///< registered workers; guarded by mutex_.
    /// Dispatcher's stop flag at dispatch time; when it reads true,
    /// participants claim+count remaining chunks without executing them.
    const std::atomic<bool>* stop = nullptr;
    /// Dispatcher's FP control mode; workers run the chunks in it.
    FpMode fp_mode = 0;
    Job* next = nullptr;  ///< intrusive list link; guarded by pool mutex_.
  };

  /// Runs the chunk hook (if installed) and returns whether the job's stop
  /// flag has fired — the per-chunk gate shared by dispatcher and workers.
  static bool ChunkStopped(const Job& job);

  void WorkerLoop() OTCLEAN_EXCLUDES(mutex_);
  Job* FindClaimableJobLocked() OTCLEAN_REQUIRES(mutex_);

  const size_t num_threads_;

  Mutex mutex_;
  CondVar wake_;
  CondVar done_;
  /// Lazily started on the first multi-chunk dispatch; joined (after a
  /// swap out under the lock) by the destructor.
  std::vector<std::thread> workers_ OTCLEAN_GUARDED_BY(mutex_);
  Job* jobs_head_ OTCLEAN_GUARDED_BY(mutex_) = nullptr;  ///< live dispatches
  bool stopping_ OTCLEAN_GUARDED_BY(mutex_) = false;
};

/// Resolves the pool a solve dispatches on: the caller-supplied `external`
/// when present, otherwise a pool constructed into `owned` for the solve's
/// duration when more than one thread resolves — so threads start once per
/// solve, not once per primitive call. Null (inline serial execution) when
/// one thread resolves. Every solver entry point (Sinkhorn,
/// FastOTClean, QCLP) funnels through this one policy.
inline ThreadPool* ResolveSolvePool(ThreadPool* external, size_t num_threads,
                                    std::optional<ThreadPool>& owned) {
  if (external != nullptr) return external;
  if (ResolveThreadCount(num_threads) > 1) {
    owned.emplace(num_threads);
    return &*owned;
  }
  return nullptr;
}

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_THREAD_POOL_H_
