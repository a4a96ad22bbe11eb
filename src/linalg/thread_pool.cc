#include "linalg/thread_pool.h"

namespace otclean::linalg {
namespace {

/// The calling thread's cooperative stop flag (see ScopedStopFlag).
thread_local const std::atomic<bool>* tls_stop_flag = nullptr;

/// Process-wide chunk instrumentation hook (see SetChunkHook).
std::atomic<ThreadPool::ChunkHook> g_chunk_hook{nullptr};
std::atomic<void*> g_chunk_hook_ctx{nullptr};

}  // namespace

ThreadPool::ScopedStopFlag::ScopedStopFlag(const std::atomic<bool>* flag)
    : previous_(tls_stop_flag) {
  tls_stop_flag = flag;
}

ThreadPool::ScopedStopFlag::~ScopedStopFlag() { tls_stop_flag = previous_; }

const std::atomic<bool>* ThreadPool::CurrentStopFlag() { return tls_stop_flag; }

void ThreadPool::SetChunkHook(ChunkHook hook, void* ctx) {
  g_chunk_hook_ctx.store(ctx, std::memory_order_release);
  g_chunk_hook.store(hook, std::memory_order_release);
}

bool ThreadPool::ChunkStopped(const Job& job) {
  if (ChunkHook hook = g_chunk_hook.load(std::memory_order_acquire)) {
    hook(g_chunk_hook_ctx.load(std::memory_order_acquire));
  }
  return job.stop != nullptr && job.stop->load(std::memory_order_acquire);
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(ResolveThreadCount(num_threads)) {}

ThreadPool::~ThreadPool() {
  // Swap the workers out under the lock (workers_ is guarded by mutex_),
  // join them outside it — a worker's exit path briefly re-takes mutex_.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    to_join.swap(workers_);
  }
  wake_.NotifyAll();
  for (std::thread& w : to_join) w.join();
}

ThreadPool::Job* ThreadPool::FindClaimableJobLocked() {
  for (Job* job = jobs_head_; job != nullptr; job = job->next) {
    if (job->next_chunk.load(std::memory_order_relaxed) < job->num_chunks) {
      return job;
    }
  }
  return nullptr;
}

void ThreadPool::RunChunks(size_t num_chunks, void (*chunk_fn)(void*, size_t),
                           void* ctx) {
  if (num_chunks == 0) return;
  if (num_chunks == 1 || num_threads_ <= 1) {
    Job inline_job;
    inline_job.stop = tls_stop_flag;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (!ChunkStopped(inline_job)) chunk_fn(ctx, c);
    }
    return;
  }
  // The job lives on the dispatcher's stack for the duration of the
  // dispatch; it is only reachable by workers through jobs_head_, and it is
  // unlinked (under mutex_, after the last registered worker left) before
  // this frame returns.
  Job job;
  job.chunk_fn = chunk_fn;
  job.ctx = ctx;
  job.num_chunks = num_chunks;
  job.stop = tls_stop_flag;
  job.fp_mode = CurrentFpMode();
  {
    MutexLock lock(mutex_);
    if (workers_.empty()) {
      // Lazy start on the first dispatch that can actually use a worker:
      // solves whose every loop stays below the parallel grain never pay
      // for thread creation. Guarded by mutex_ — dispatches may now race.
      workers_.reserve(num_threads_ - 1);
      for (size_t t = 1; t < num_threads_; ++t) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    job.next = jobs_head_;
    jobs_head_ = &job;
  }
  wake_.NotifyAll();
  // The dispatching thread is a full participant — with W workers the pool
  // provides W+1 lanes per job. Under concurrent dispatch each job is
  // guaranteed at least its own dispatcher; idle workers join whichever
  // live jobs still have unclaimed chunks.
  size_t completed = 0;
  for (;;) {
    const size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) break;
    if (!ChunkStopped(job)) chunk_fn(ctx, c);
    ++completed;
  }
  MutexLock lock(mutex_);
  job.done_chunks += completed;
  // Explicit predicate loop (not the lambda-wait overload): the guarded
  // reads stay in this locked scope where TSA can see the capability.
  while (!(job.done_chunks == num_chunks && job.active_workers == 0)) {
    done_.Wait(mutex_);
  }
  Job** link = &jobs_head_;
  while (*link != &job) link = &(*link)->next;
  *link = job.next;
}

void ThreadPool::WorkerLoop() {
  const FpMode own_fp_mode = CurrentFpMode();
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && (job = FindClaimableJobLocked()) == nullptr) {
        wake_.Wait(mutex_);
      }
      if (stopping_) return;
      // Registering under the mutex pins the job: its dispatcher cannot
      // unlink (and pop its stack frame) until active_workers drops back
      // to zero — also under this mutex.
      ++job->active_workers;
    }
    SetFpMode(job->fp_mode);  // a no-op unless the modes differ
    size_t completed = 0;
    for (;;) {
      const size_t c = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job->num_chunks) break;
      if (!ChunkStopped(*job)) job->chunk_fn(job->ctx, c);
      ++completed;
    }
    SetFpMode(own_fp_mode);
    bool job_finished;
    {
      MutexLock lock(mutex_);
      job->done_chunks += completed;
      --job->active_workers;
      job_finished =
          job->done_chunks == job->num_chunks && job->active_workers == 0;
    }
    // Only the transition a dispatcher can be waiting on needs a signal;
    // done_.NotifyAll wakes every dispatcher, each of which rechecks its
    // own job's predicate.
    if (job_finished) done_.NotifyAll();
  }
}

void RunPoolChunks(ThreadPool* pool, size_t num_chunks,
                   void (*chunk_fn)(void*, size_t), void* ctx) {
  pool->RunChunks(num_chunks, chunk_fn, ctx);
}

}  // namespace otclean::linalg
