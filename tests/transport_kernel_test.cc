#include "linalg/transport_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "linalg/cost_provider.h"
#include "linalg/parallel_for.h"
#include "linalg/simd.h"
#include "linalg/thread_pool.h"
#include "ot/cost.h"
#include "ot/sinkhorn.h"
#include "prob/domain.h"
#include "pool_probe.h"

namespace otclean::linalg {
namespace {

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

// ------------------------------------------------------------ primitives --

TEST(TransportKernelTest, DensePrimitivesMatchMatrixOps) {
  const Matrix cost = RandomCost(7, 5, 11);
  const Matrix k = cost.GibbsKernel(0.3);
  const DenseTransportKernel kernel(k, /*num_threads=*/1);
  const Vector v = RandomMarginal(5, 12);
  const Vector u = RandomMarginal(7, 13);

  Vector kv, ktu;
  kernel.Apply(v, kv);
  kernel.ApplyTranspose(u, ktu);
  EXPECT_TRUE(kv.ApproxEquals(k.MatVec(v), 1e-15));
  EXPECT_TRUE(ktu.ApproxEquals(k.TransposeMatVec(u), 1e-15));
  EXPECT_TRUE(
      kernel.ScaleToPlan(u, v).ApproxEquals(k.ScaleRowsCols(u, v), 1e-15));
  EXPECT_NEAR(kernel.TransportCost(cost, u, v),
              cost.FrobeniusDot(k.ScaleRowsCols(u, v)), 1e-12);
}

TEST(TransportKernelTest, SparsePrimitivesMatchDenseAtCutoffZero) {
  const Matrix cost = RandomCost(9, 6, 21);
  const DenseTransportKernel dense =
      DenseTransportKernel::FromCost(cost, 0.25, 1);
  const SparseTransportKernel sparse =
      SparseTransportKernel::FromCost(cost, 0.25, 0.0, 1);
  EXPECT_EQ(sparse.nnz(), dense.nnz());

  const Vector v = RandomMarginal(6, 22);
  const Vector u = RandomMarginal(9, 23);
  Vector dkv, skv, dktu, sktu;
  dense.Apply(v, dkv);
  sparse.Apply(v, skv);
  dense.ApplyTranspose(u, dktu);
  sparse.ApplyTranspose(u, sktu);
  EXPECT_TRUE(skv.ApproxEquals(dkv, 1e-15));
  EXPECT_TRUE(sktu.ApproxEquals(dktu, 1e-15));
  EXPECT_TRUE(sparse.ScaleToPlan(u, v).ApproxEquals(dense.ScaleToPlan(u, v),
                                                    1e-15));
  EXPECT_TRUE(sparse.ScaleToPlanSparse(u, v).ToDense().ApproxEquals(
      dense.ScaleToPlan(u, v), 1e-15));
  EXPECT_NEAR(sparse.TransportCost(cost, u, v),
              dense.TransportCost(cost, u, v), 1e-13);
}

TEST(TransportKernelTest, TruncationDropsEntries) {
  const Matrix cost = RandomCost(12, 12, 31);
  const SparseTransportKernel full =
      SparseTransportKernel::FromCost(cost, 0.2, 0.0, 1);
  const SparseTransportKernel cut =
      SparseTransportKernel::FromCost(cost, 0.2, 1e-3, 1);
  EXPECT_EQ(full.nnz(), 144u);
  EXPECT_LT(cut.nnz(), full.nnz());
  EXPECT_GT(cut.nnz(), 0u);
}

// --------------------------------------------------- streamed costs ------

TEST(CostProviderTest, MatrixProviderStreamsTheBackingMatrix) {
  const Matrix cost = RandomCost(6, 9, 101);
  const MatrixCostProvider provider(cost);
  ASSERT_EQ(provider.rows(), 6u);
  ASSERT_EQ(provider.cols(), 9u);
  EXPECT_EQ(provider.AsMatrix(), &cost);
  std::vector<double> tile(4);
  provider.Fill(2, 3, 7, tile.data());
  for (size_t c = 0; c < 4; ++c) EXPECT_EQ(tile[c], cost(2, c + 3));
  const std::vector<size_t> idx{8, 0, 5};
  std::vector<double> gathered(3);
  provider.Gather(4, idx.data(), idx.size(), gathered.data());
  for (size_t k = 0; k < idx.size(); ++k) {
    EXPECT_EQ(gathered[k], cost(4, idx[k]));
  }
  EXPECT_TRUE(MaterializeCostMatrix(provider).ApproxEquals(cost, 0.0));
}

TEST(CostProviderTest, FunctionProviderMatchesBuildCostMatrix) {
  const prob::Domain dom = prob::Domain::FromCardinalities({3, 4, 2});
  const ot::EuclideanCost f(3);
  std::vector<size_t> rows{0, 5, 7, 11, 23};
  std::vector<size_t> cols(dom.TotalSize());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  const ot::FunctionCostProvider provider(dom, rows, cols, f);
  const Matrix built = ot::BuildCostMatrix(dom, rows, cols, f);
  ASSERT_EQ(provider.rows(), built.rows());
  ASSERT_EQ(provider.cols(), built.cols());
  EXPECT_EQ(provider.AsMatrix(), nullptr);
  EXPECT_TRUE(MaterializeCostMatrix(provider).ApproxEquals(built, 0.0));
  for (size_t r = 0; r < provider.rows(); ++r) {
    for (size_t c = 0; c < provider.cols(); ++c) {
      EXPECT_EQ(provider.At(r, c), built(r, c));
    }
  }
}

TEST(TransportKernelTest, StreamedGibbsKernelMatchesDenseBuiltKernel) {
  // The truncated kernel built by streaming the cost provider must be
  // bit-identical to the one built from a materialized cost matrix — at
  // cutoff 0 (every entry survives) and at a truncating cutoff.
  const prob::Domain dom = prob::Domain::FromCardinalities({4, 3, 3});
  const ot::HammingCost f;
  const ot::FunctionCostProvider provider(dom, f);
  const Matrix cost = ot::BuildCostMatrix(dom, f);
  for (const double cutoff : {0.0, 1e-2}) {
    const SparseMatrix streamed = SparseMatrix::GibbsKernel(provider, 0.4,
                                                            cutoff);
    const SparseMatrix built = SparseMatrix::GibbsKernel(cost, 0.4, cutoff);
    ASSERT_EQ(streamed.nnz(), built.nnz()) << "cutoff " << cutoff;
    EXPECT_TRUE(streamed.ToDense().ApproxEquals(built.ToDense(), 0.0))
        << "cutoff " << cutoff;
    if (cutoff > 0.0) {
      EXPECT_LT(streamed.nnz(), dom.TotalSize() * dom.TotalSize());
    }
  }
}

TEST(TransportKernelTest, StreamedTransportCostMatchesDenseCost) {
  const prob::Domain dom = prob::Domain::FromCardinalities({3, 3, 4});
  const ot::EuclideanCost f(3);
  const ot::FunctionCostProvider provider(dom, f);
  const Matrix cost = ot::BuildCostMatrix(dom, f);
  const size_t n = dom.TotalSize();
  const Vector u = RandomMarginal(n, 111);
  const Vector v = RandomMarginal(n, 112);
  for (const double cutoff : {0.0, 5e-2}) {
    const SparseTransportKernel streamed =
        SparseTransportKernel::FromCost(provider, 0.3, cutoff, 1);
    const SparseTransportKernel built =
        SparseTransportKernel::FromCost(cost, 0.3, cutoff, 1);
    ASSERT_EQ(streamed.nnz(), built.nnz());
    // Identical kernels, and ⟨C, π⟩ evaluated from the streamed provider
    // (support gathers) equals the dense-cost evaluation.
    EXPECT_EQ(streamed.TransportCost(provider, u, v),
              built.TransportCost(cost, u, v))
        << "cutoff " << cutoff;
  }
  // The dense kernel's streamed TransportCost (tile path) agrees with its
  // zero-copy in-memory path.
  const DenseTransportKernel dense = DenseTransportKernel::FromCost(cost, 0.3,
                                                                    1);
  EXPECT_NEAR(dense.TransportCost(provider, u, v),
              dense.TransportCost(cost, u, v), 1e-13);
}

TEST(TransportKernelTest, CachedSupportCostsMatchStreamedTransportCost) {
  // GatherSupportCosts + SupportTransportCost (what FastOTClean's outer
  // loop uses to avoid re-evaluating the cost function every iteration)
  // must be bit-identical to streaming the provider each time.
  const prob::Domain dom = prob::Domain::FromCardinalities({3, 4, 3});
  const ot::EuclideanCost f(3);
  const ot::FunctionCostProvider provider(dom, f);
  const size_t n = dom.TotalSize();
  const Vector u = RandomMarginal(n, 131);
  const Vector v = RandomMarginal(n, 132);
  const SparseTransportKernel kernel =
      SparseTransportKernel::FromCost(provider, 0.3, 2e-2, 1);
  const std::vector<double> cached = kernel.GatherSupportCosts(provider);
  ASSERT_EQ(cached.size(), kernel.nnz());
  EXPECT_EQ(kernel.SupportTransportCost(cached, u, v),
            kernel.TransportCost(provider, u, v));
}

TEST(UnifiedSinkhornTest, ProviderAndMatrixSparseSolvesAreIdentical) {
  // RunSinkhornSparse(CostProvider) is THE entry point; the Matrix overload
  // wraps it. Both must produce identical plans, potentials, and costs.
  const prob::Domain dom = prob::Domain::FromCardinalities({4, 2, 3});
  const ot::EuclideanCost f(3);
  const ot::FunctionCostProvider provider(dom, f);
  const Matrix cost = ot::BuildCostMatrix(dom, f);
  const size_t n = dom.TotalSize();
  const Vector p = RandomMarginal(n, 121);
  const Vector q = RandomMarginal(n, 122);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.25;
  opts.relaxed = true;
  opts.num_threads = 1;
  const auto streamed =
      ot::RunSinkhornSparse(provider, p, q, opts, 1e-3).value();
  const auto dense_arg = ot::RunSinkhornSparse(cost, p, q, opts, 1e-3).value();
  EXPECT_EQ(streamed.iterations, dense_arg.iterations);
  EXPECT_EQ(streamed.transport_cost, dense_arg.transport_cost);
  EXPECT_TRUE(streamed.u.ApproxEquals(dense_arg.u, 0.0));
  EXPECT_TRUE(streamed.v.ApproxEquals(dense_arg.v, 0.0));
  EXPECT_TRUE(
      streamed.plan.ToDense().ApproxEquals(dense_arg.plan.ToDense(), 0.0));
}

// ------------------------------------------------- thread determinism ----

TEST(TransportKernelTest, DensePrimitivesBitIdenticalAcrossThreadCounts) {
  // Sizes large enough that the work-based grain actually engages multiple
  // workers, and awkward enough to give uneven chunk boundaries.
  const size_t m = 951, n = 899;
  const Matrix cost = RandomCost(m, n, 41);
  const Vector u = RandomMarginal(m, 42);
  const Vector v = RandomMarginal(n, 43);
  const DenseTransportKernel serial(cost.GibbsKernel(0.3), 1);
  Vector kv1, ktu1;
  serial.Apply(v, kv1);
  serial.ApplyTranspose(u, ktu1);
  const Matrix plan1 = serial.ScaleToPlan(u, v);
  const double cost1 = serial.TransportCost(cost, u, v);

  for (size_t threads : {2, 3, 5}) {
    ASSERT_GT(PlanChunks(m, threads, GrainForWork(n)).num_chunks, 1u);
    ASSERT_GT(PlanChunks(n, threads, GrainForWork(m)).num_chunks, 1u);
    const DenseTransportKernel parallel(cost.GibbsKernel(0.3), threads);
    Vector kv, ktu;
    parallel.Apply(v, kv);
    parallel.ApplyTranspose(u, ktu);
    for (size_t i = 0; i < m; ++i) EXPECT_EQ(kv[i], kv1[i]);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(ktu[j], ktu1[j]);
    EXPECT_TRUE(parallel.ScaleToPlan(u, v).ApproxEquals(plan1, 0.0));
    EXPECT_EQ(parallel.TransportCost(cost, u, v), cost1);
  }
}

TEST(TransportKernelTest, SparsePrimitivesBitIdenticalAcrossThreadCounts) {
  // ~650k kept entries: both passes split at every thread count below.
  const size_t m = 1009, n = 1051;
  const Matrix cost = RandomCost(m, n, 51);
  const Vector u = RandomMarginal(m, 52);
  const Vector v = RandomMarginal(n, 53);
  const SparseTransportKernel serial =
      SparseTransportKernel::FromCost(cost, 0.2, 1e-4, 1);
  Vector kv1, ktu1;
  serial.Apply(v, kv1);
  serial.ApplyTranspose(u, ktu1);
  const double cost1 = serial.TransportCost(cost, u, v);

  const size_t nnz = serial.nnz();
  for (size_t threads : {2, 4}) {
    ASSERT_GT(PlanChunks(m, threads, GrainForWork(nnz / m)).num_chunks, 1u);
    ASSERT_GT(PlanChunks(n, threads, GrainForWork(nnz / n)).num_chunks, 1u);
    const SparseTransportKernel parallel =
        SparseTransportKernel::FromCost(cost, 0.2, 1e-4, threads);
    Vector kv, ktu;
    parallel.Apply(v, kv);
    parallel.ApplyTranspose(u, ktu);
    for (size_t i = 0; i < m; ++i) EXPECT_EQ(kv[i], kv1[i]);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(ktu[j], ktu1[j]);
    EXPECT_EQ(parallel.TransportCost(cost, u, v), cost1);
  }
}

// ------------------------------------------- unified solver equivalence --

TEST(UnifiedSinkhornTest, DenseAndSparseCutoffZeroProduceIdenticalResults) {
  const Matrix cost = RandomCost(15, 15, 61);
  const Vector p = RandomMarginal(15, 62);
  const Vector q = RandomMarginal(15, 63);
  for (const bool relaxed : {false, true}) {
    ot::SinkhornOptions opts;
    opts.epsilon = 0.15;
    opts.relaxed = relaxed;
    opts.num_threads = 1;
    const auto dense = ot::RunSinkhorn(cost, p, q, opts).value();
    const auto sparse = ot::RunSinkhornSparse(cost, p, q, opts, 0.0).value();
    EXPECT_EQ(sparse.iterations, dense.iterations);
    EXPECT_EQ(sparse.converged, dense.converged);
    EXPECT_TRUE(sparse.plan.ToDense().ApproxEquals(dense.plan, 1e-12));
    EXPECT_TRUE(sparse.u.ApproxEquals(dense.u, 1e-12));
    EXPECT_TRUE(sparse.v.ApproxEquals(dense.v, 1e-12));
    EXPECT_NEAR(sparse.transport_cost, dense.transport_cost, 1e-12);
  }
}

TEST(UnifiedSinkhornTest, SerialAndParallelSolvesAreIdentical) {
  // The dense kernel (810k nnz) and its 1e-9 truncation (~560k) both
  // split across the solver's pool: at least 2 chunks per pass, 2 passes
  // per iteration.
  const Matrix cost = RandomCost(900, 900, 71);
  const Vector p = RandomMarginal(900, 72);
  const Vector q = RandomMarginal(900, 73);
  ot::SinkhornOptions serial_opts;
  serial_opts.epsilon = 0.1;
  serial_opts.relaxed = true;
  serial_opts.lambda = 5.0;  // softer exponent: converges in O(10^2) iters
  serial_opts.tolerance = 1e-8;
  serial_opts.num_threads = 1;
  const auto serial = ot::RunSinkhorn(cost, p, q, serial_opts).value();

  ot::SinkhornOptions parallel_opts = serial_opts;
  parallel_opts.num_threads = 4;
  testing::WorkerChunkProbe probe;
  const auto parallel = ot::RunSinkhorn(cost, p, q, parallel_opts).value();
  const size_t dense_chunks = probe.pooled_chunks();
  EXPECT_GE(dense_chunks, 4 * parallel.iterations);
  EXPECT_GT(probe.worker_chunks(), 0u);

  EXPECT_EQ(parallel.iterations, serial.iterations);
  EXPECT_TRUE(parallel.plan.ApproxEquals(serial.plan, 0.0));
  EXPECT_EQ(parallel.transport_cost, serial.transport_cost);

  const auto sparse_serial =
      ot::RunSinkhornSparse(cost, p, q, serial_opts, 1e-9).value();
  const auto sparse_parallel =
      ot::RunSinkhornSparse(cost, p, q, parallel_opts, 1e-9).value();
  EXPECT_GE(probe.pooled_chunks() - dense_chunks,
            4 * sparse_parallel.iterations);
  EXPECT_EQ(sparse_parallel.iterations, sparse_serial.iterations);
  EXPECT_TRUE(sparse_parallel.plan.ToDense().ApproxEquals(
      sparse_serial.plan.ToDense(), 0.0));
  EXPECT_EQ(sparse_parallel.transport_cost, sparse_serial.transport_cost);
}

TEST(UnifiedSinkhornTest, WarmStartConvergesInFewerIterations) {
  const Matrix cost = RandomCost(20, 20, 81);
  const Vector p = RandomMarginal(20, 82);
  const Vector q = RandomMarginal(20, 83);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.tolerance = 1e-11;
  const auto cold = ot::RunSinkhorn(cost, p, q, opts).value();
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 1u);
  // Re-solving from the converged potentials must need fewer iterations
  // than the cold solve (Section 5's warm-start optimization).
  const auto warm = ot::RunSinkhorn(cost, p, q, opts, &cold.u, &cold.v).value();
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(UnifiedSinkhornTest, ScalingEntryPointMatchesWrapper) {
  const Matrix cost = RandomCost(8, 8, 91);
  const Vector p = RandomMarginal(8, 92);
  const Vector q = RandomMarginal(8, 93);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.2;
  opts.num_threads = 1;
  const auto wrapped = ot::RunSinkhorn(cost, p, q, opts).value();
  const DenseTransportKernel kernel =
      DenseTransportKernel::FromCost(cost, opts.epsilon, 1);
  const ot::SinkhornScaling scaling =
      ot::RunSinkhornScaling(kernel, p, q, opts).value();
  EXPECT_EQ(scaling.iterations, wrapped.iterations);
  EXPECT_TRUE(scaling.u.ApproxEquals(wrapped.u, 0.0));
  EXPECT_TRUE(scaling.v.ApproxEquals(wrapped.v, 0.0));
  // Mis-sized marginals must error, not read out of bounds.
  EXPECT_FALSE(ot::RunSinkhornScaling(kernel, Vector(3), q, opts).ok());
  EXPECT_FALSE(ot::RunSinkhornScaling(kernel, p, Vector(3), opts).ok());
}

// ------------------------------------------------------- fused sweep ----

/// The split sequence UpdateRowsApplyTranspose replaces: Apply, the
/// relaxed update over all rows, then ApplyTranspose.
double SplitSweep(const TransportKernel& kernel, const Vector& marginal,
                  double exponent, const Vector& v, const Vector& u,
                  Vector& next_u, Vector& ktu) {
  Vector kv;
  kernel.Apply(v, kv);
  next_u = Vector(u.size());
  const double residual =
      simd::ScalingUpdate(marginal.begin(), kv.begin(), exponent, u.begin(),
                          next_u.begin(), u.size());
  kernel.ApplyTranspose(next_u, ktu);
  return residual;
}

/// The inputs of one sweep: a kernel from a random cost, the row marginal,
/// and the previous scalings.
struct SweepInputs {
  SweepInputs(size_t m, size_t n, uint64_t seed)
      : kernel(RandomCost(m, n, seed).GibbsKernel(0.5)),
        marginal(RandomMarginal(m, seed + 1)),
        v(RandomMarginal(n, seed + 2)),
        u(RandomMarginal(m, seed + 3)) {}
  Matrix kernel;
  Vector marginal, v, u;
};

template <typename T>
DenseKernel<T> MakeDense(const Matrix& k, size_t threads,
                         ThreadPool* pool = nullptr) {
  return DenseKernel<T>(typename DenseKernel<T>::Storage(k), threads, pool);
}

template <typename T>
class FusedSweepTest : public ::testing::Test {};
using StorageTypes = ::testing::Types<double, float>;
TYPED_TEST_SUITE(FusedSweepTest, StorageTypes);

TYPED_TEST(FusedSweepTest, SingleBlockIsBitIdenticalToSplitSequence) {
  // Below kMinParallelWork entries a kernel is one block, and the fused
  // sweep computes exactly the split sequence's bits — the 200×1000 case
  // also spans several cache tiles of rows.
  for (const auto& [m, n] : {std::pair<size_t, size_t>{7, 5},
                             {37, 53},
                             {200, 1000}}) {
    ASSERT_GE(FusedSweepBlockRows(m, n), m);
    const SweepInputs in(m, n, 61);
    const auto kernel = MakeDense<TypeParam>(in.kernel, 1);
    for (double exponent : {1.0, 0.9}) {
      Vector next_ref, ktu_ref, next_u, ktu, scratch;
      const double r_ref = SplitSweep(kernel, in.marginal, exponent, in.v,
                                      in.u, next_ref, ktu_ref);
      const double r = kernel.UpdateRowsApplyTranspose(
          in.marginal, exponent, in.v, in.u, next_u, ktu, scratch);
      EXPECT_EQ(r, r_ref);
      for (size_t i = 0; i < m; ++i) ASSERT_EQ(next_u[i], next_ref[i]) << i;
      for (size_t j = 0; j < n; ++j) ASSERT_EQ(ktu[j], ktu_ref[j]) << j;
    }
  }
}

TYPED_TEST(FusedSweepTest, MultiBlockMatchesSplitSequenceToRounding) {
  // 951×899 is four blocks: the scalings and residual are the split
  // sequence's bits, and Kᵀu differs only by the blocks' summation order.
  const size_t m = 951, n = 899;
  ASSERT_LT(FusedSweepBlockRows(m, n), m);
  const SweepInputs in(m, n, 71);
  const auto kernel = MakeDense<TypeParam>(in.kernel, 1);
  Vector next_ref, ktu_ref, next_u, ktu, scratch;
  const double r_ref =
      SplitSweep(kernel, in.marginal, 0.9, in.v, in.u, next_ref, ktu_ref);
  const double r = kernel.UpdateRowsApplyTranspose(in.marginal, 0.9, in.v,
                                                   in.u, next_u, ktu, scratch);
  EXPECT_EQ(r, r_ref);
  for (size_t i = 0; i < m; ++i) ASSERT_EQ(next_u[i], next_ref[i]) << i;
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(ktu[j], ktu_ref[j], 1e-14 * std::fabs(ktu_ref[j])) << j;
  }
}

TYPED_TEST(FusedSweepTest, BitIdenticalAcrossThreadCountsPooledAndInline) {
  const size_t m = 951, n = 899;
  const SweepInputs in(m, n, 81);
  const auto serial = MakeDense<TypeParam>(in.kernel, 1);
  Vector next1, ktu1, scratch;
  const double r1 = serial.UpdateRowsApplyTranspose(in.marginal, 0.9, in.v,
                                                    in.u, next1, ktu1, scratch);
  for (size_t threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const auto kernel = MakeDense<TypeParam>(in.kernel, threads, p);
      testing::WorkerChunkProbe probe;
      // Repeated so that pool workers, not only the dispatching thread,
      // get to run some of the chunks.
      for (int rep = 0; rep < 20; ++rep) {
        Vector next_u, ktu;
        const double r = kernel.UpdateRowsApplyTranspose(
            in.marginal, 0.9, in.v, in.u, next_u, ktu, scratch);
        EXPECT_EQ(r, r1);
        for (size_t i = 0; i < m; ++i) ASSERT_EQ(next_u[i], next1[i]) << i;
        for (size_t j = 0; j < n; ++j) ASSERT_EQ(ktu[j], ktu1[j]) << j;
      }
      if (p != nullptr && threads > 1) {
        EXPECT_GT(probe.worker_chunks(), 0u) << "threads=" << threads;
      }
    }
  }
}

TYPED_TEST(FusedSweepTest, ZeroScalingRowsAreNeverReadAndClampsHold) {
  // Row 3 (block 0) and row 700 (block 2) are NaN: K·v is NaN, so their
  // scaling is 0 and the transpose half must skip them unread — else
  // 0·NaN would poison every Kᵀu entry. Row 5 is all zeros (x/0 := 0) and
  // row 6 tiny enough that its scaling overflows to the clamp ceiling.
  const size_t m = 951, n = 899;
  SweepInputs in(m, n, 91);
  for (size_t j = 0; j < n; ++j) {
    in.kernel(3, j) = std::numeric_limits<double>::quiet_NaN();
    in.kernel(700, j) = std::numeric_limits<double>::quiet_NaN();
    in.kernel(5, j) = 0.0;
    in.kernel(6, j) = 1e-200;
  }
  for (size_t threads : {1, 3}) {
    const auto kernel = MakeDense<TypeParam>(in.kernel, threads);
    for (double exponent : {1.0, 0.9}) {
      Vector next_ref, ktu_ref, next_u, ktu, scratch;
      const double r_ref = SplitSweep(kernel, in.marginal, exponent, in.v,
                                      in.u, next_ref, ktu_ref);
      const double r = kernel.UpdateRowsApplyTranspose(
          in.marginal, exponent, in.v, in.u, next_u, ktu, scratch);
      EXPECT_EQ(r, r_ref);
      EXPECT_EQ(next_u[3], 0.0);
      EXPECT_EQ(next_u[700], 0.0);
      EXPECT_EQ(next_u[5], 0.0);
      const bool f32 = std::is_same_v<TypeParam, float>;
      // 1e-200 is 0 in float storage, so the f32 row 6 is a zero row too.
      EXPECT_EQ(next_u[6], f32 ? 0.0 : simd::kScalingCeiling);
      for (size_t i = 0; i < m; ++i) ASSERT_EQ(next_u[i], next_ref[i]) << i;
      for (size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(std::isfinite(ktu[j])) << j;
        EXPECT_NEAR(ktu[j], ktu_ref[j], 1e-14 * std::fabs(ktu_ref[j])) << j;
      }
    }
  }
}

TEST(FusedSweepTest, SparseKernelsRunTheSplitSequence) {
  const SweepInputs in(40, 30, 95);
  const SparseTransportKernel kernel(SparseMatrix::FromDense(in.kernel), 1);
  Vector next_ref, ktu_ref, next_u, ktu, scratch;
  const double r_ref =
      SplitSweep(kernel, in.marginal, 0.9, in.v, in.u, next_ref, ktu_ref);
  EXPECT_EQ(kernel.UpdateRowsApplyTranspose(in.marginal, 0.9, in.v, in.u,
                                            next_u, ktu, scratch),
            r_ref);
  EXPECT_TRUE(next_u.ApproxEquals(next_ref, 0.0));
  EXPECT_TRUE(ktu.ApproxEquals(ktu_ref, 0.0));
}

TEST(FusedSweepTest, BlockRowsDependOnShapeAlone) {
  EXPECT_EQ(FusedSweepBlockRows(101, 101), 101u);  // below the cutoff
  // 1375 columns: 190-row target, 8 even blocks of at most 172 rows.
  EXPECT_EQ(FusedSweepBlockRows(1375, 1375), 172u);
  // Very wide kernels keep kMinFusedBlockRows rows per block.
  EXPECT_EQ(FusedSweepBlockRows(1000, size_t{1} << 20), kMinFusedBlockRows);
}

TEST(TransportKernelTest, PooledDenseBuildIsBitIdenticalToSerial) {
  // Both set-up passes of a dense solve — the materialized cost and the
  // Gibbs kernel — run row-chunked on the pool with the serial bits.
  const size_t m = 700, n = 800;
  const Matrix cost = RandomCost(m, n, 97);
  const Matrix kernel = cost.GibbsKernel(0.3);
  ThreadPool pool(3);
  testing::WorkerChunkProbe probe;
  const DenseTransportKernel pooled =
      DenseTransportKernel::FromCost(cost, 0.3, 3, &pool);
  EXPECT_TRUE(pooled.kernel().ApproxEquals(kernel, 0.0));
  const MatrixCostProvider provider(cost);
  EXPECT_TRUE(
      MaterializeCostMatrix(provider, 3, &pool).ApproxEquals(cost, 0.0));
  EXPECT_GT(probe.worker_chunks(), 0u);
}

// ------------------------------------------------------- ParallelFor ------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1, 2, 7}) {
    std::vector<int> hits(1000, 0);
    ParallelFor(
        hits.size(), threads,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        },
        /*grain=*/1);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, BlockedReduceIsThreadCountInvariant) {
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
    EXPECT_EQ(BlockedReduce(values.size(), threads, block_sum), serial);
  }
}

}  // namespace
}  // namespace otclean::linalg
