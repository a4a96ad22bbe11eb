// Allocation instrumentation for the cost-free sparse pipeline: a
// truncated (kernel_truncation > 0) FastOtClean solve must never perform a
// rows×cols-sized allocation — not for the plan (CSR end to end since the
// storage-polymorphic TransportPlan) and not for the cost (streamed
// through CostProvider since the O(nnz) pipeline). This test replaces
// global operator new to record the largest single allocation and the
// count of dense-scale (>= rows×cols doubles) allocations made while the
// solver runs, then asserts the truncated path stays strictly below that
// scale while the dense path — same problem, truncation 0 — is seen
// crossing it (proving the instrument actually measures).
//
// Kept in its own test binary so the global replacement cannot interfere
// with allocation-sensitive tests elsewhere.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <array>
#include <new>

#include "common/random.h"
#include "core/fast_otclean.h"
#include "core/solve_cache.h"
#include "linalg/simd.h"
#include "prob/domain.h"
#include "prob/independence.h"
#include "prob/joint.h"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_max_alloc{0};
std::atomic<size_t> g_dense_scale_bytes{0};
std::atomic<size_t> g_dense_scale_allocs{0};

void Record(size_t size) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  size_t prev = g_max_alloc.load(std::memory_order_relaxed);
  while (size > prev &&
         !g_max_alloc.compare_exchange_weak(prev, size,
                                            std::memory_order_relaxed)) {
  }
  const size_t threshold = g_dense_scale_bytes.load(std::memory_order_relaxed);
  if (threshold != 0 && size >= threshold) {
    g_dense_scale_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

struct TrackingScope {
  explicit TrackingScope(size_t dense_scale_bytes) {
    g_max_alloc.store(0, std::memory_order_relaxed);
    g_dense_scale_allocs.store(0, std::memory_order_relaxed);
    g_dense_scale_bytes.store(dense_scale_bytes, std::memory_order_relaxed);
    g_tracking.store(true, std::memory_order_relaxed);
  }
  ~TrackingScope() { g_tracking.store(false, std::memory_order_relaxed); }
  size_t max_alloc() const {
    return g_max_alloc.load(std::memory_order_relaxed);
  }
  size_t dense_scale_allocs() const {
    return g_dense_scale_allocs.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(size_t size) {
  Record(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace otclean::core {
namespace {

/// A domain big enough that rows×cols dwarfs every legitimate O(nnz) /
/// O(rows+cols) allocation: 4 attributes of cardinality 6 → 1296 cells,
/// 359 of them active. The plan's rows and columns are both the active
/// cells, so a dense plan/cost is 359 × 359 doubles ≈ 1.03 MB.
struct Problem {
  prob::Domain dom = prob::Domain::FromCardinalities({6, 6, 6, 6});
  prob::JointDistribution p_data{dom};
  prob::CiSpec ci{{0}, {1}, {2, 3}};
  /// A second constraint that conflicts with `ci`, for the multi-spec case.
  prob::CiSpec ci2{{1}, {3}, {}};
  ot::EuclideanCost cost{4};
  size_t active_rows = 0;

  explicit Problem(uint64_t seed) {
    Rng rng(seed);
    for (int draw = 0; draw < 400; ++draw) {
      p_data[static_cast<size_t>(rng.NextInt(
          0, static_cast<int64_t>(dom.TotalSize()) - 1))] += 1.0;
    }
    p_data.Normalize();
    for (size_t i = 0; i < p_data.size(); ++i) {
      if (p_data[i] > 0.0) ++active_rows;
    }
  }

  FastOtCleanOptions Options(double truncation,
                             bool log_domain = false) const {
    FastOtCleanOptions options;
    options.epsilon = 0.12;
    options.max_outer_iterations = 4;
    options.max_sinkhorn_iterations = 200;
    options.kernel_truncation = truncation;
    options.log_domain = log_domain;
    options.num_threads = 1;  // single-threaded: no pool allocations
    return options;
  }
};

TEST(AllocGuardTest, TruncatedSolveNeverAllocatesRowsTimesCols) {
  const Problem problem(2024);
  const size_t rows = problem.active_rows;
  const size_t cols = problem.active_rows;
  ASSERT_GT(rows, 100u);
  const size_t dense_bytes = rows * cols * sizeof(double);

  Rng rng(7);
  size_t kernel_nnz = 0;
  size_t max_alloc = 0;
  size_t dense_scale_allocs = 0;
  {
    TrackingScope scope(dense_bytes);
    const auto result = FastOtClean(problem.p_data, problem.ci, problem.cost,
                                    problem.Options(/*truncation=*/1e-3),
                                    rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->plan.IsSparse());
    kernel_nnz = result->kernel_nnz;
    max_alloc = scope.max_alloc();
    dense_scale_allocs = scope.dense_scale_allocs();
  }
  ASSERT_GT(kernel_nnz, 0u);
  ASSERT_LT(kernel_nnz, rows * cols);
  // THE acceptance assertion: zero allocations at dense rows×cols scale —
  // neither a plan nor a cost matrix — anywhere in the truncated solve.
  EXPECT_EQ(dense_scale_allocs, 0u);
  EXPECT_LT(max_alloc, dense_bytes);
  // And not merely squeaking under the threshold: the largest single
  // allocation (CSR arrays, tuple tables, domain-sized vectors) stays an
  // order of magnitude below the dense plan/cost scale.
  EXPECT_LT(max_alloc, dense_bytes / 8);
}

TEST(AllocGuardTest, TruncatedLogDomainSolveNeverAllocatesRowsTimesCols) {
  // Same guarantee on the log-domain path: the truncated solve iterates a
  // SparseLogTransportKernel holding −C/ε at the kept entries — no dense
  // log-kernel, no dense cost, no dense plan, ever.
  const Problem problem(2024);
  const size_t rows = problem.active_rows;
  const size_t cols = problem.active_rows;
  const size_t dense_bytes = rows * cols * sizeof(double);

  Rng rng(7);
  size_t kernel_nnz = 0;
  size_t max_alloc = 0;
  size_t dense_scale_allocs = 0;
  {
    TrackingScope scope(dense_bytes);
    const auto result = FastOtClean(
        problem.p_data, problem.ci, problem.cost,
        problem.Options(/*truncation=*/1e-3, /*log_domain=*/true), rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->plan.IsSparse());
    kernel_nnz = result->kernel_nnz;
    max_alloc = scope.max_alloc();
    dense_scale_allocs = scope.dense_scale_allocs();
  }
  ASSERT_GT(kernel_nnz, 0u);
  ASSERT_LT(kernel_nnz, rows * cols);
  EXPECT_EQ(dense_scale_allocs, 0u);
  EXPECT_LT(max_alloc, dense_bytes);
  EXPECT_LT(max_alloc, dense_bytes / 8);
}

TEST(AllocGuardTest, CachedSolveSkipsKernelConstructionAllocations) {
  // The solve-cache acceptance assertion: a second, identical truncated
  // solve through a shared SolveCache adopts the cached kernel storages
  // (CSR arrays, CSC mirror, gathered support costs) instead of rebuilding
  // them, so its nnz-scale allocations collapse to plan materialization
  // alone — a handful of arrays — while the cold run is seen making
  // strictly more (kernel build + mirror + support costs + plan).
  const Problem problem(2024);
  SolveCache cache;
  // A milder cutoff than the tests above: it must keep enough entries that
  // nnz-scale dwarfs every O(cols) vector (cutoff 1e-8 keeps costs up to
  // ε·ln(1e8) ≈ 2.2, several neighbors per row), while still truncating.
  FastOtCleanOptions options = problem.Options(/*truncation=*/1e-8);
  options.solve_cache = &cache;

  // Probe run (untracked, cache-less) to learn the kernel's nnz — the
  // allocation scale the cached run must stay out of.
  size_t kernel_nnz = 0;
  {
    Rng rng(7);
    const auto probe = FastOtClean(problem.p_data, problem.ci, problem.cost,
                                   problem.Options(/*truncation=*/1e-8), rng);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    kernel_nnz = probe->kernel_nnz;
  }
  ASSERT_GT(kernel_nnz, problem.dom.TotalSize());  // dwarfs O(cols) vectors
  ASSERT_LT(kernel_nnz, problem.active_rows * problem.dom.TotalSize());
  const size_t nnz_bytes = kernel_nnz * sizeof(double);

  size_t cold_allocs = 0;
  {
    Rng rng(7);
    TrackingScope scope(nnz_bytes);
    const auto cold =
        FastOtClean(problem.p_data, problem.ci, problem.cost, options, rng);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->cache_kernel_misses, 1u);
    cold_allocs = scope.dense_scale_allocs();
  }
  ASSERT_GT(cold_allocs, 0u);  // the instrument sees the kernel build

  size_t hot_allocs = 0;
  {
    Rng rng(7);
    TrackingScope scope(nnz_bytes);
    const auto hot =
        FastOtClean(problem.p_data, problem.ci, problem.cost, options, rng);
    ASSERT_TRUE(hot.ok()) << hot.status().ToString();
    EXPECT_EQ(hot->cache_kernel_hits, 1u);
    hot_allocs = scope.dense_scale_allocs();
  }
  // Zero kernel-construction allocations: what remains is the plan's own
  // CSR storage (values + column indices + a row-pointer array), nothing
  // growing with the kernel build.
  EXPECT_LT(hot_allocs, cold_allocs);
  EXPECT_LE(hot_allocs, 4u);
}

TEST(AllocGuardTest, DenseSolveTripsTheInstrument) {
  // Sanity check of the instrumentation itself: the dense path (truncation
  // 0) must be observed making rows×cols-scale allocations — otherwise the
  // zero-count above could pass vacuously.
  const Problem problem(2024);
  const size_t dense_bytes =
      problem.active_rows * problem.active_rows * sizeof(double);

  Rng rng(7);
  TrackingScope scope(dense_bytes);
  const auto result = FastOtClean(problem.p_data, problem.ci, problem.cost,
                                  problem.Options(/*truncation=*/0.0), rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->plan.IsSparse());
  EXPECT_EQ(result->plan.col_cells().size(), problem.active_rows);
  EXPECT_GT(scope.dense_scale_allocs(), 0u);
  EXPECT_GE(scope.max_alloc(), dense_bytes);
}

TEST(AllocGuardTest, CiProjectorAllocatesNothingAfterConstruction) {
  // FastOTClean runs the cyclic CI projection once per outer step; the
  // projector it builds per repair must not allocate in any of them.
  const Problem problem(2024);
  const std::vector<prob::CiSpec> cis = {problem.ci, problem.ci2};
  prob::CiProjector projector(problem.dom, cis);
  linalg::Vector q = problem.p_data.probs();
  double max_cmi = 0.0;
  size_t allocs = 0;
  {
    // A 1-byte "dense scale" counts every allocation.
    TrackingScope scope(/*dense_scale_bytes=*/1);
    projector.Project(q);
    projector.ProjectOnto(0, q);
    max_cmi = projector.MaxCmi(q);
    allocs = scope.dense_scale_allocs();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(max_cmi, 0.0);  // the two specs conflict; the work was real

  // The instrument sees the wrapper's per-call projector.
  TrackingScope scope(/*dense_scale_bytes=*/1);
  const prob::JointDistribution projected =
      prob::MultiCiProjection(problem.p_data, cis);
  EXPECT_GT(scope.dense_scale_allocs(), 0u);
}

TEST(AllocGuardTest, ScalingUpdateAllocatesNothing) {
  // The relaxed Sinkhorn half-update runs twice per inner iteration; it
  // writes into the caller's buffers and must not allocate on any tier.
  // Static buffers: a heap vector in this file's test bodies trips gcc's
  // -Wmismatched-new-delete against the replaced operator new above.
  constexpr size_t n = 1000;
  static std::array<double, n> marginal, denom, prev, next;
  for (size_t i = 0; i < n; ++i) {
    marginal[i] = 1.0 + static_cast<double>(i);
    denom[i] = 0.5 + static_cast<double>(i % 7);
    prev[i] = 1.0;
  }
  linalg::simd::ScalingUpdate(marginal.data(), denom.data(), 0.9,
                              prev.data(), next.data(), n);  // dispatch init
  const linalg::simd::Isa saved = linalg::simd::ActiveIsa();
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    linalg::simd::SetIsa(isa);
    double residual = 0.0;
    size_t allocs = 0;
    {
      TrackingScope scope(/*dense_scale_bytes=*/1);
      for (double e : {1.0, 0.998, 0.5}) {
        residual += linalg::simd::ScalingUpdate(
            marginal.data(), denom.data(), e, prev.data(), next.data(), n);
      }
      allocs = scope.dense_scale_allocs();
    }
    EXPECT_EQ(allocs, 0u) << linalg::simd::IsaName(isa);
    EXPECT_GT(residual, 0.0);
  }
  linalg::simd::SetIsa(saved);
}

}  // namespace
}  // namespace otclean::core
