#ifndef OTCLEAN_TESTS_POOL_PROBE_H_
#define OTCLEAN_TESTS_POOL_PROBE_H_

// Test helper: proves that a pooled-vs-inline comparison really ran chunks
// on pool workers. A kernel pass splits only when each chunk gets at least
// linalg::kMinParallelWork scalar operations, so a kernel below about
// 2·kMinParallelWork nonzeros runs inline even with a pool attached — a
// bit-identity test on such a fixture would compare inline against inline.
// Bit-identity tests that mean to cover the pool assert on this probe.

#include <atomic>
#include <cstddef>
#include <thread>

#include "linalg/thread_pool.h"

namespace otclean::testing {

/// Installed as the process-wide ThreadPool chunk hook for its lifetime
/// (one probe at a time). Counts every chunk dispatched through a pool,
/// and the subset run off the thread that constructed the probe — i.e. by
/// pool workers when that thread is the only dispatcher.
class WorkerChunkProbe {
 public:
  WorkerChunkProbe() : dispatcher_(std::this_thread::get_id()) {
    linalg::ThreadPool::SetChunkHook(&Hook, this);
  }
  ~WorkerChunkProbe() { linalg::ThreadPool::SetChunkHook(nullptr, nullptr); }
  WorkerChunkProbe(const WorkerChunkProbe&) = delete;
  WorkerChunkProbe& operator=(const WorkerChunkProbe&) = delete;

  size_t pooled_chunks() const { return pooled_.load(); }
  size_t worker_chunks() const { return on_workers_.load(); }

 private:
  static void Hook(void* ctx) {
    auto* self = static_cast<WorkerChunkProbe*>(ctx);
    ++self->pooled_;
    if (std::this_thread::get_id() != self->dispatcher_) ++self->on_workers_;
  }

  const std::thread::id dispatcher_;
  std::atomic<size_t> pooled_{0};
  std::atomic<size_t> on_workers_{0};
};

}  // namespace otclean::testing

#endif  // OTCLEAN_TESTS_POOL_PROBE_H_
