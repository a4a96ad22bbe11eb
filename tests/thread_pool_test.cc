#include "linalg/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "linalg/fp_env.h"
#include "linalg/transport_kernel.h"
#include "ot/sinkhorn.h"
#include "pool_probe.h"

namespace otclean::linalg {
namespace {

using testing::WorkerChunkProbe;

Matrix RandomCost(size_t m, size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * 3.0;
  return cost;
}

Vector RandomMarginal(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

TEST(ThreadPoolTest, PooledParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    ParallelFor(
        hits.size(), pool.num_threads(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        },
        /*grain=*/1, &pool);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  // The whole point of the pool: one construction, thousands of dispatches
  // (a Sinkhorn run's worth). Each dispatch must see all chunks complete
  // before the next starts.
  ThreadPool pool(4);
  std::vector<int> data(512, 0);
  for (int round = 0; round < 2000; ++round) {
    ParallelFor(
        data.size(), pool.num_threads(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++data[i];
        },
        /*grain=*/1, &pool);
  }
  for (int v : data) EXPECT_EQ(v, 2000);
}

TEST(ThreadPoolTest, PooledBlockedReduceMatchesSerial) {
  std::vector<double> values(10000);
  Rng rng(99);
  for (double& v : values) v = rng.NextDouble() - 0.5;
  auto block_sum = [&](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += values[i];
    return s;
  };
  const double serial = BlockedReduce(values.size(), 1, block_sum);
  for (size_t threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(BlockedReduce(values.size(), threads, block_sum, &pool), serial);
  }
}

TEST(ThreadPoolTest, PooledKernelPrimitivesBitIdenticalToSpawned) {
  // 855k nonzeros: both passes split three ways (see pool_probe.h).
  const size_t m = 950, n = 900;
  const Matrix cost = RandomCost(m, n, 41);
  const Vector u = RandomMarginal(m, 42);
  const Vector v = RandomMarginal(n, 43);

  const DenseTransportKernel spawned(cost.GibbsKernel(0.3), 3);
  ThreadPool pool(3);
  const DenseTransportKernel pooled(cost.GibbsKernel(0.3), 3, &pool);

  Vector kv_s, kv_p, ktu_s, ktu_p;
  spawned.Apply(v, kv_s);
  spawned.ApplyTranspose(u, ktu_s);
  WorkerChunkProbe probe;
  // One dispatch may finish before a worker wakes; repeat until workers
  // took part (each repetition is checked).
  for (int rep = 0; rep < 1000 && probe.worker_chunks() == 0; ++rep) {
    pooled.Apply(v, kv_p);
    pooled.ApplyTranspose(u, ktu_p);
    ASSERT_EQ(kv_p.data(), kv_s.data());
    ASSERT_EQ(ktu_p.data(), ktu_s.data());
  }
  EXPECT_TRUE(pooled.ScaleToPlan(u, v).ApproxEquals(spawned.ScaleToPlan(u, v),
                                                    0.0));
  EXPECT_EQ(pooled.TransportCost(cost, u, v), spawned.TransportCost(cost, u, v));
  EXPECT_GT(probe.worker_chunks(), 0u);
}

/// Options for the pooled-solve fixtures: relaxed with a soft exponent, so
/// a ~1M-nonzero problem converges in a few hundred iterations.
ot::SinkhornOptions PooledSolveOptions() {
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.lambda = 5.0;
  opts.tolerance = 1e-8;
  return opts;
}

TEST(ThreadPoolTest, PooledSinkhornBitIdenticalToSerialAtAnyThreadCount) {
  // Sized so the dense kernel (810k nnz) and its 1e-9 truncation (~560k)
  // both split across the pool at every thread count below: at least 2
  // chunks per pass; the dense kernel makes one fused pass per iteration,
  // the truncated one two (Apply, then ApplyTranspose).
  const size_t m = 900, n = 900;
  const Matrix cost = RandomCost(m, n, 71);
  const Vector p = RandomMarginal(m, 72);
  const Vector q = RandomMarginal(n, 73);
  ot::SinkhornOptions serial_opts = PooledSolveOptions();
  serial_opts.num_threads = 1;
  const auto serial = ot::RunSinkhorn(cost, p, q, serial_opts).value();
  const auto sparse_serial =
      ot::RunSinkhornSparse(cost, p, q, serial_opts, 1e-9).value();

  for (size_t threads : {2, 3, 5}) {
    ThreadPool pool(threads);
    ot::SinkhornOptions pooled_opts = serial_opts;
    pooled_opts.num_threads = threads;
    pooled_opts.thread_pool = &pool;

    WorkerChunkProbe probe;
    const auto pooled = ot::RunSinkhorn(cost, p, q, pooled_opts).value();
    EXPECT_EQ(pooled.iterations, serial.iterations);
    EXPECT_TRUE(pooled.plan.ApproxEquals(serial.plan, 0.0));
    EXPECT_EQ(pooled.transport_cost, serial.transport_cost);
    const size_t dense_chunks = probe.pooled_chunks();
    EXPECT_GE(dense_chunks, 2 * pooled.iterations) << "threads=" << threads;
    EXPECT_GT(probe.worker_chunks(), 0u) << "threads=" << threads;

    const auto sparse_pooled =
        ot::RunSinkhornSparse(cost, p, q, pooled_opts, 1e-9).value();
    EXPECT_EQ(sparse_pooled.iterations, sparse_serial.iterations);
    EXPECT_TRUE(sparse_pooled.plan.ToDense().ApproxEquals(
        sparse_serial.plan.ToDense(), 0.0));
    EXPECT_EQ(sparse_pooled.transport_cost, sparse_serial.transport_cost);
    EXPECT_GE(probe.pooled_chunks() - dense_chunks,
              4 * sparse_pooled.iterations)
        << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ConcurrentDispatchersEachSeeTheirOwnChunksComplete) {
  // Multiple threads drive the same pool at once (the RepairScheduler's
  // sharing model). Every dispatcher's ParallelFor must cover exactly its
  // own index range every round, no matter how workers interleave across
  // the live jobs.
  ThreadPool pool(4);
  constexpr size_t kDispatchers = 4;
  constexpr size_t kRounds = 500;
  constexpr size_t kIndices = 512;
  std::vector<std::vector<int>> data(kDispatchers,
                                     std::vector<int>(kIndices, 0));
  std::vector<std::thread> dispatchers;
  for (size_t d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      for (size_t round = 0; round < kRounds; ++round) {
        ParallelFor(
            kIndices, pool.num_threads(),
            [&, d](size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) ++data[d][i];
            },
            /*grain=*/1, &pool);
      }
    });
  }
  for (std::thread& t : dispatchers) t.join();
  for (const auto& lane : data) {
    for (int v : lane) EXPECT_EQ(v, kRounds);
  }
}

TEST(ThreadPoolTest, SharedPoolUnderConcurrentDispatchersMatchesDedicated) {
  // Two Sinkhorn solves racing on ONE pool must produce exactly the
  // results they produce on dedicated pools: the chunk decomposition of a
  // dispatch depends only on (n, threads, grain), never on pool traffic.
  const Matrix cost_a = RandomCost(800, 760, 71);
  const Vector p_a = RandomMarginal(800, 72);
  const Vector q_a = RandomMarginal(760, 73);
  const Matrix cost_b = RandomCost(760, 800, 74);
  const Vector p_b = RandomMarginal(760, 75);
  const Vector q_b = RandomMarginal(800, 76);

  ot::SinkhornOptions opts = PooledSolveOptions();
  opts.num_threads = 3;

  ot::SinkhornResult dedicated_a, dedicated_b;
  {
    ThreadPool pool_a(3), pool_b(3);
    ot::SinkhornOptions oa = opts, ob = opts;
    oa.thread_pool = &pool_a;
    ob.thread_pool = &pool_b;
    WorkerChunkProbe probe;
    dedicated_a = ot::RunSinkhorn(cost_a, p_a, q_a, oa).value();
    dedicated_b = ot::RunSinkhorn(cost_b, p_b, q_b, ob).value();
    EXPECT_GE(probe.pooled_chunks(),
              2 * (dedicated_a.iterations + dedicated_b.iterations));
    EXPECT_GT(probe.worker_chunks(), 0u);
  }

  ThreadPool shared(3);
  ot::SinkhornOptions shared_opts = opts;
  shared_opts.thread_pool = &shared;
  ot::SinkhornResult shared_a, shared_b;
  std::thread other([&] {
    shared_b = ot::RunSinkhorn(cost_b, p_b, q_b, shared_opts).value();
  });
  shared_a = ot::RunSinkhorn(cost_a, p_a, q_a, shared_opts).value();
  other.join();

  EXPECT_EQ(shared_a.iterations, dedicated_a.iterations);
  EXPECT_TRUE(shared_a.plan.ApproxEquals(dedicated_a.plan, 0.0));
  EXPECT_EQ(shared_a.transport_cost, dedicated_a.transport_cost);
  EXPECT_EQ(shared_b.iterations, dedicated_b.iterations);
  EXPECT_TRUE(shared_b.plan.ApproxEquals(dedicated_b.plan, 0.0));
  EXPECT_EQ(shared_b.transport_cost, dedicated_b.transport_cost);
}

TEST(ThreadPoolTest, SolverOwnedPoolMatchesExternalPool) {
  // With options.thread_pool unset the solver creates its own pool; the
  // result must be identical either way.
  const Matrix cost = RandomCost(800, 800, 81);
  const Vector p = RandomMarginal(800, 82);
  const Vector q = RandomMarginal(800, 83);
  ot::SinkhornOptions opts = PooledSolveOptions();
  opts.num_threads = 4;
  WorkerChunkProbe probe;
  const auto own = ot::RunSinkhorn(cost, p, q, opts).value();
  const size_t own_chunks = probe.pooled_chunks();
  EXPECT_GE(own_chunks, 2 * own.iterations);

  ThreadPool pool(4);
  opts.thread_pool = &pool;
  const auto external = ot::RunSinkhorn(cost, p, q, opts).value();
  EXPECT_GE(probe.pooled_chunks() - own_chunks, 2 * external.iterations);
  EXPECT_GT(probe.worker_chunks(), 0u);
  EXPECT_EQ(external.iterations, own.iterations);
  EXPECT_TRUE(external.plan.ApproxEquals(own.plan, 0.0));
}

TEST(ThreadPoolTest, CacheResidentKernelsRunInlineLargeOnesSplit) {
  // The parallel cutoff: a paper-scale 101×200 kernel (Boston) never wakes
  // the pool — not in a kernel pass, not anywhere in a full solve — while
  // a kernel above twice the cutoff splits its passes.
  ThreadPool pool(4);
  const Matrix small_cost = RandomCost(101, 200, 91);
  const DenseTransportKernel small(small_cost.GibbsKernel(0.1), 4, &pool);
  const size_t n = 1024;
  const size_t m = 2 * kMinParallelWork / n + 64;
  ASSERT_GT(m * n, 2 * kMinParallelWork);
  const DenseTransportKernel large(RandomCost(m, n, 92).GibbsKernel(0.1), 4,
                                   &pool);
  Vector y;
  {
    WorkerChunkProbe probe;
    small.Apply(RandomMarginal(200, 93), y);
    small.ApplyTranspose(RandomMarginal(101, 94), y);
    ot::SinkhornOptions opts = PooledSolveOptions();
    opts.num_threads = 4;
    opts.thread_pool = &pool;
    ASSERT_TRUE(ot::RunSinkhorn(small_cost, RandomMarginal(101, 95),
                                RandomMarginal(200, 96), opts)
                    .ok());
    EXPECT_EQ(probe.pooled_chunks(), 0u);
  }
  {
    WorkerChunkProbe probe;
    large.Apply(RandomMarginal(n, 97), y);
    const size_t apply_chunks = probe.pooled_chunks();
    EXPECT_GT(apply_chunks, 1u);
    large.ApplyTranspose(RandomMarginal(m, 98), y);
    EXPECT_GT(probe.pooled_chunks() - apply_chunks, 1u);
  }
}

// ------------------------------------------------------------ FP mode --

/// A dense kernel whose Apply products are all subnormal (entries of
/// 1e-300 against scalings of 1e-10), large enough to split. `inline_` and
/// `flushed` are its inline results without and with flushing.
struct SubnormalPass {
  const size_t n = 1024;
  const size_t m = 2 * kMinParallelWork / n + 64;
  const Matrix kernel = Matrix(m, n, 1e-300);
  const Vector v = Vector(n, 1e-10);
  Vector inline_, flushed;

  SubnormalPass() {
    const DenseTransportKernel k(kernel, 4);  // no pool: inline chunks
    k.Apply(v, inline_);
    ScopedFlushSubnormals flush;
    k.Apply(v, flushed);
  }
};

TEST(ThreadPoolFpModeTest, WorkersRunChunksInTheDispatchersFpMode) {
  // The workers start — and inherit their FP mode — on a thread that
  // flushes subnormals. A later dispatch from a thread that does not flush
  // must still compute exactly what it computes inline: workers adopt the
  // dispatcher's mode for its chunks.
  const SubnormalPass pass;
  ThreadPool pool(4);
  const DenseTransportKernel pooled(pass.kernel, 4, &pool);
  std::thread starter([&] {
    ScopedFlushSubnormals flush;
    Vector warm;
    pooled.Apply(pass.v, warm);  // first multi-chunk dispatch starts workers
  });
  starter.join();

  ASSERT_NE(pass.inline_.data(), pass.flushed.data())
      << "the fixture must be sensitive to the FP mode";

  WorkerChunkProbe probe;
  Vector got;
  for (int rep = 0; rep < 1000 && probe.worker_chunks() == 0; ++rep) {
    pooled.Apply(pass.v, got);
    ASSERT_EQ(got.data(), pass.inline_.data()) << "repetition " << rep;
  }
  EXPECT_GT(probe.worker_chunks(), 0u);
}

TEST(ThreadPoolFpModeTest, WorkersRestoreTheirOwnModeAfterAJob) {
  // A flushed dispatch must not leave workers flushing: the next
  // non-flushed dispatch computes the subnormal products exactly.
  const SubnormalPass pass;
  ThreadPool pool(4);
  const DenseTransportKernel pooled(pass.kernel, 4, &pool);
  ASSERT_NE(pass.inline_.data(), pass.flushed.data());
  WorkerChunkProbe probe;
  Vector got;
  for (int rep = 0; rep < 1000 && probe.worker_chunks() == 0; ++rep) {
    {
      ScopedFlushSubnormals flush;
      pooled.Apply(pass.v, got);
      ASSERT_EQ(got.data(), pass.flushed.data()) << "repetition " << rep;
    }
    pooled.Apply(pass.v, got);
    ASSERT_EQ(got.data(), pass.inline_.data()) << "repetition " << rep;
  }
  EXPECT_GT(probe.worker_chunks(), 0u);
}

TEST(ThreadPoolFpModeTest, FlushScopeRestoresOnlyWhatItChanged) {
  const FpMode before = CurrentFpMode();
  {
    ScopedFlushSubnormals outer;
    const FpMode flushed = CurrentFpMode();
    {
      ScopedFlushSubnormals inner;  // already flushing: changes nothing
      EXPECT_EQ(CurrentFpMode(), flushed);
    }
    EXPECT_EQ(CurrentFpMode(), flushed);  // the inner scope left it on
  }
  EXPECT_EQ(CurrentFpMode(), before);
}

TEST(ThreadPoolFpModeTest, EngineLeavesTheCallersModeUnchanged) {
  const Matrix cost = RandomCost(12, 9, 61);
  const Vector p = RandomMarginal(12, 62);
  const Vector q = RandomMarginal(9, 63);
  ot::SinkhornOptions opts = PooledSolveOptions();
  opts.num_threads = 1;
  const DenseTransportKernel kernel(cost.GibbsKernel(opts.epsilon), 1);
  const FpMode before = CurrentFpMode();
  ASSERT_TRUE(ot::RunSinkhornScaling(kernel, p, q, opts).ok());
  EXPECT_EQ(CurrentFpMode(), before);
  {
    // A caller that already flushes keeps flushing.
    ScopedFlushSubnormals flush;
    const FpMode flushed = CurrentFpMode();
    ASSERT_TRUE(ot::RunSinkhornScaling(kernel, p, q, opts).ok());
    EXPECT_EQ(CurrentFpMode(), flushed);
  }
  EXPECT_EQ(CurrentFpMode(), before);
  opts.log_domain = true;  // RunSinkhornLogScaling
  ASSERT_TRUE(ot::RunSinkhorn(cost, p, q, opts).ok());
  EXPECT_EQ(CurrentFpMode(), before);
}

}  // namespace
}  // namespace otclean::linalg
