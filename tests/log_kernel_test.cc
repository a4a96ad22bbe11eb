// LogTransportKernel + log-domain Sinkhorn coverage: streamed-LSE
// primitives against libm references per SIMD tier, dense/CSR kernel
// agreement, log ≡ linear plan agreement at moderate ε (dense and
// sparse-at-cutoff-0), the small-ε regime where only the log domain
// survives, zero-mass marginal handling, thread-count bit-identity, the
// finite↔−inf convergence-delta fix, warm-start size validation, and the
// hardened input validation (negative marginals, non-finite costs).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/fast_otclean.h"
#include "core/repair.h"
#include "datagen/synthetic.h"
#include "linalg/log_transport_kernel.h"
#include "linalg/simd.h"
#include "linalg/simd_exp.h"
#include "ot/cost.h"
#include "ot/sinkhorn.h"
#include "prob/domain.h"
#include "prob/independence.h"
#include "pool_probe.h"

namespace otclean {
namespace {

using linalg::DenseLogTransportKernel;
using linalg::Matrix;
using linalg::SparseLogTransportKernel;
using linalg::Vector;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

Matrix RandomCost(size_t m, size_t n, uint64_t seed, double scale = 3.0) {
  Rng rng(seed);
  Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * scale;
  return cost;
}

Vector RandomMarginal(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

/// libm reference LSE over L_row + lv.
double ReferenceLse(const Matrix& log_kernel, size_t row, const Vector& lv) {
  double mx = kNegInf;
  for (size_t j = 0; j < log_kernel.cols(); ++j) {
    mx = std::max(mx, log_kernel(row, j) + lv[j]);
  }
  if (mx == kNegInf) return kNegInf;
  double s = 0.0;
  for (size_t j = 0; j < log_kernel.cols(); ++j) {
    s += std::exp(log_kernel(row, j) + lv[j] - mx);
  }
  return mx + std::log(s);
}

// ------------------------------------------------------- SIMD primitives --

TEST(LogSimdTest, PolyExpMatchesLibmExp) {
  Rng rng(11);
  double max_rel = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double x = (rng.NextDouble() - 1.0) * 700.0;  // (-700, 0]
    const double rel =
        std::fabs(linalg::simd::PolyExp(x) - std::exp(x)) / std::exp(x);
    max_rel = std::max(max_rel, rel);
  }
  EXPECT_LT(max_rel, 1e-15);
  EXPECT_EQ(linalg::simd::PolyExp(kNegInf), 0.0);
  EXPECT_EQ(linalg::simd::PolyExp(-1000.0), 0.0);
  EXPECT_EQ(linalg::simd::PolyExp(std::nan("")), 0.0);
  EXPECT_EQ(linalg::simd::PolyExp(0.0), 1.0);
}

TEST(LogSimdTest, MaxReductionsBitIdenticalAcrossTiers) {
  Rng rng(12);
  const size_t n = 1003;  // odd: exercises every tail
  std::vector<double> a(n), b(n), x(n);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = (rng.NextDouble() - 0.5) * 40.0;
    b[i] = (rng.NextDouble() - 0.5) * 40.0;
    x[i] = (rng.NextDouble() - 0.5) * 40.0;
    idx[i] = static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(n) - 1));
  }
  a[17] = kNegInf;  // −inf entries must flow through the max untouched
  linalg::simd::SetIsa(linalg::simd::Isa::kScalar);
  const double m1 = linalg::simd::MaxReduce(a.data(), n);
  const double m2 = linalg::simd::AddMaxReduce(a.data(), b.data(), n);
  const double m3 =
      linalg::simd::GatherAddMaxReduce(a.data(), idx.data(), x.data(), n);
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    linalg::simd::SetIsa(isa);
    EXPECT_EQ(m1, linalg::simd::MaxReduce(a.data(), n))
        << linalg::simd::IsaName(isa);
    EXPECT_EQ(m2, linalg::simd::AddMaxReduce(a.data(), b.data(), n))
        << linalg::simd::IsaName(isa);
    EXPECT_EQ(m3, linalg::simd::GatherAddMaxReduce(a.data(), idx.data(),
                                                   x.data(), n))
        << linalg::simd::IsaName(isa);
  }
  linalg::simd::SetIsa(linalg::simd::ActiveIsa());
  EXPECT_EQ(linalg::simd::MaxReduce(a.data(), 0), kNegInf);
}

TEST(LogSimdTest, ExpSumsMatchScalarWithinUlps) {
  Rng rng(13);
  const size_t n = 517;
  std::vector<double> a(n), b(n), x(n);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = -rng.NextDouble() * 30.0;
    b[i] = -rng.NextDouble() * 30.0;
    x[i] = -rng.NextDouble() * 30.0;
    idx[i] = static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(n) - 1));
  }
  a[3] = kNegInf;  // contributes exactly 0 in every tier
  linalg::simd::SetIsa(linalg::simd::Isa::kScalar);
  const double s1 = linalg::simd::ExpSumShifted(a.data(), -1.0, n);
  const double s2 = linalg::simd::AddExpSumShifted(a.data(), b.data(), -2.0, n);
  const double s3 = linalg::simd::GatherAddExpSumShifted(a.data(), idx.data(),
                                                         x.data(), -2.0, n);
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    linalg::simd::SetIsa(isa);
    const double tol = 1e-13;
    EXPECT_NEAR(linalg::simd::ExpSumShifted(a.data(), -1.0, n), s1,
                tol * std::fabs(s1))
        << linalg::simd::IsaName(isa);
    EXPECT_NEAR(linalg::simd::AddExpSumShifted(a.data(), b.data(), -2.0, n),
                s2, tol * std::fabs(s2))
        << linalg::simd::IsaName(isa);
    EXPECT_NEAR(linalg::simd::GatherAddExpSumShifted(a.data(), idx.data(),
                                                     x.data(), -2.0, n),
                s3, tol * std::fabs(s3))
        << linalg::simd::IsaName(isa);
  }
  linalg::simd::SetIsa(linalg::simd::ActiveIsa());
}

TEST(LogSimdTest, StripAccumulatorsBitIdenticalAcrossTiers) {
  Rng rng(14);
  const size_t n = 259;
  std::vector<double> a(n), shift(n, -1.5), base_mx(n), base_acc(n, 0.25);
  for (size_t i = 0; i < n; ++i) {
    a[i] = -rng.NextDouble() * 20.0;
    base_mx[i] = -rng.NextDouble() * 20.0;
  }
  linalg::simd::SetIsa(linalg::simd::Isa::kScalar);
  std::vector<double> mx_ref = base_mx, acc_ref = base_acc, out_ref(n);
  linalg::simd::AddMaxAccumulate(0.3, a.data(), mx_ref.data(), n);
  linalg::simd::AddExpSumAccumulate(0.3, a.data(), shift.data(),
                                    acc_ref.data(), n);
  linalg::simd::AddExpWrite(-0.7, a.data(), base_mx.data(), out_ref.data(), n);
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    linalg::simd::SetIsa(isa);
    std::vector<double> mx = base_mx, acc = base_acc, out(n);
    linalg::simd::AddMaxAccumulate(0.3, a.data(), mx.data(), n);
    linalg::simd::AddExpSumAccumulate(0.3, a.data(), shift.data(), acc.data(),
                                      n);
    linalg::simd::AddExpWrite(-0.7, a.data(), base_mx.data(), out.data(), n);
    EXPECT_EQ(mx, mx_ref) << linalg::simd::IsaName(isa);
    EXPECT_EQ(acc, acc_ref) << linalg::simd::IsaName(isa);
    EXPECT_EQ(out, out_ref) << linalg::simd::IsaName(isa);
  }
  linalg::simd::SetIsa(linalg::simd::ActiveIsa());
}

// --------------------------------------------------------------- kernels --

TEST(LogTransportKernelTest, DenseLogApplyMatchesLibmReference) {
  const size_t m = 37, n = 53;
  const Matrix cost = RandomCost(m, n, 21);
  const DenseLogTransportKernel kernel =
      DenseLogTransportKernel::FromCost(cost, 0.07, /*num_threads=*/1);
  Vector lv(n);
  Rng rng(22);
  for (size_t j = 0; j < n; ++j) lv[j] = (rng.NextDouble() - 0.5) * 10.0;
  lv[5] = kNegInf;  // a zero-mass column must simply not contribute
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    linalg::simd::SetIsa(isa);
    Vector out;
    kernel.LogApply(lv, out);
    for (size_t i = 0; i < m; ++i) {
      const double ref = ReferenceLse(kernel.log_kernel(), i, lv);
      EXPECT_NEAR(out[i], ref, 1e-12 * (std::fabs(ref) + 1.0))
          << "row " << i << " isa " << linalg::simd::IsaName(isa);
    }
  }
  linalg::simd::SetIsa(linalg::simd::ActiveIsa());
}

TEST(LogTransportKernelTest, DenseTransposeMatchesApplyOfTransposedKernel) {
  const size_t m = 41, n = 29;
  const Matrix cost = RandomCost(m, n, 31);
  const DenseLogTransportKernel kernel =
      DenseLogTransportKernel::FromCost(cost, 0.11, /*num_threads=*/1);
  const DenseLogTransportKernel kernel_t = DenseLogTransportKernel::FromCost(
      cost.Transposed(), 0.11, /*num_threads=*/1);
  Vector lu(m);
  Rng rng(32);
  for (size_t i = 0; i < m; ++i) lu[i] = (rng.NextDouble() - 0.5) * 8.0;
  lu[7] = kNegInf;
  Vector a, b;
  kernel.LogApplyTranspose(lu, a);
  kernel_t.LogApply(lu, b);
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(a[j], b[j], 1e-12 * (std::fabs(b[j]) + 1.0)) << j;
  }
}

TEST(LogTransportKernelTest, SparseAtCutoffZeroMatchesDense) {
  const size_t m = 23, n = 31;
  const Matrix cost = RandomCost(m, n, 41);
  const DenseLogTransportKernel dense =
      DenseLogTransportKernel::FromCost(cost, 0.09, /*num_threads=*/1);
  const SparseLogTransportKernel sparse = SparseLogTransportKernel::FromCost(
      cost, 0.09, /*cutoff=*/0.0, /*num_threads=*/1);
  ASSERT_EQ(sparse.nnz(), m * n);
  Vector lv(n), lu(m);
  Rng rng(42);
  for (size_t j = 0; j < n; ++j) lv[j] = (rng.NextDouble() - 0.5) * 6.0;
  for (size_t i = 0; i < m; ++i) lu[i] = (rng.NextDouble() - 0.5) * 6.0;
  Vector yd, ys;
  dense.LogApply(lv, yd);
  sparse.LogApply(lv, ys);
  for (size_t i = 0; i < m; ++i) {
    // Row LSEs share one reduction recipe — bit-identical at full support.
    EXPECT_EQ(yd[i], ys[i]) << i;
  }
  // Plans share per-element arithmetic — bit-identical too.
  const Matrix pd = dense.ScaleToPlan(lu, lv);
  const Matrix ps = sparse.ScaleToPlan(lu, lv);
  for (size_t i = 0; i < pd.data().size(); ++i) {
    EXPECT_EQ(pd.data()[i], ps.data()[i]);
  }
  // Transpose LSEs use different (strip vs CSC-gather) accumulation
  // orders; they agree to rounding.
  Vector td, ts;
  dense.LogApplyTranspose(lu, td);
  sparse.LogApplyTranspose(lu, ts);
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(td[j], ts[j], 1e-12 * (std::fabs(td[j]) + 1.0)) << j;
  }
}

TEST(LogTransportKernelTest, ThreadCountsBitIdentical) {
  // 855k nonzeros: both passes split three ways across the pool.
  const size_t m = 950, n = 900;
  const Matrix cost = RandomCost(m, n, 51);
  linalg::ThreadPool pool(4);
  const DenseLogTransportKernel serial =
      DenseLogTransportKernel::FromCost(cost, 0.08, /*num_threads=*/1);
  const DenseLogTransportKernel threaded =
      DenseLogTransportKernel::FromCost(cost, 0.08, /*num_threads=*/4, &pool);
  Vector lv = RandomMarginal(n, 52);
  Vector lu = RandomMarginal(m, 53);
  for (size_t j = 0; j < n; ++j) lv[j] = std::log(lv[j]);
  for (size_t i = 0; i < m; ++i) lu[i] = std::log(lu[i]);
  Vector y1, y4, t1, t4;
  serial.LogApply(lv, y1);
  serial.LogApplyTranspose(lu, t1);
  testing::WorkerChunkProbe probe;
  // One dispatch may finish before a worker wakes; repeat until workers
  // took part (each repetition is checked).
  for (int rep = 0; rep < 1000 && probe.worker_chunks() == 0; ++rep) {
    threaded.LogApply(lv, y4);
    threaded.LogApplyTranspose(lu, t4);
    ASSERT_EQ(y4.data(), y1.data()) << "repetition " << rep;
    ASSERT_EQ(t4.data(), t1.data()) << "repetition " << rep;
  }
  EXPECT_GT(probe.worker_chunks(), 0u);
}

// ------------------------------------------------- log ≡ linear solves ---

TEST(LogSinkhornEquivalenceTest, DenseAndSparsePlansMatchLinearPerTier) {
  const size_t m = 12, n = 15;
  const Matrix cost = RandomCost(m, n, 61, 2.0);
  const Vector p = RandomMarginal(m, 62);
  const Vector q = RandomMarginal(n, 63);
  ot::SinkhornOptions lin;
  lin.epsilon = 0.08;
  const auto linear = ot::RunSinkhorn(cost, p, q, lin).value();
  ASSERT_TRUE(linear.converged);
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    linalg::simd::SetIsa(isa);
    ot::SinkhornOptions log = lin;
    log.log_domain = true;
    const auto dense = ot::RunSinkhorn(cost, p, q, log).value();
    EXPECT_TRUE(dense.converged);
    EXPECT_TRUE(dense.plan.ApproxEquals(linear.plan, 1e-7))
        << linalg::simd::IsaName(isa);
    EXPECT_NEAR(dense.transport_cost, linear.transport_cost, 1e-7)
        << linalg::simd::IsaName(isa);
    const auto sparse =
        ot::RunSinkhornSparse(cost, p, q, log, /*kernel_cutoff=*/0.0).value();
    EXPECT_TRUE(sparse.plan.ToDense().ApproxEquals(linear.plan, 1e-7))
        << linalg::simd::IsaName(isa);
    EXPECT_NEAR(sparse.transport_cost, linear.transport_cost, 1e-7)
        << linalg::simd::IsaName(isa);
  }
  linalg::simd::SetIsa(linalg::simd::ActiveIsa());
}

TEST(LogSinkhornEquivalenceTest, TruncatedLogMatchesTruncatedLinear) {
  const size_t m = 14, n = 14;
  const Matrix cost = RandomCost(m, n, 71, 4.0);
  const Vector p = RandomMarginal(m, 72);
  const Vector q = RandomMarginal(n, 73);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.3;
  opts.relaxed = true;  // relaxed: truncation may orphan columns
  opts.lambda = 30.0;
  const double cutoff = 1e-4;
  const auto linear = ot::RunSinkhornSparse(cost, p, q, opts, cutoff).value();
  ot::SinkhornOptions log = opts;
  log.log_domain = true;
  const auto logged = ot::RunSinkhornSparse(cost, p, q, log, cutoff).value();
  ASSERT_EQ(logged.plan.nnz(), linear.plan.nnz());
  ASSERT_LT(logged.plan.nnz(), m * n);  // the cutoff actually truncated
  EXPECT_TRUE(logged.plan.ToDense().ApproxEquals(linear.plan.ToDense(), 1e-7));
  EXPECT_NEAR(logged.transport_cost, linear.transport_cost, 1e-7);
}

TEST(LogSinkhornEquivalenceTest, SmallEpsilonOnlyLogDomainSurvives) {
  // At ε = 1e-3 with costs ~O(1), e^{−C/ε} underflows to an all-zero
  // linear kernel: the linear solve degenerates (mass vanishes) while the
  // log domain converges to a near-exact plan — on the dense AND the
  // truncated sparse path.
  Matrix cost(2, 2, 0.0);
  cost(0, 1) = 1.0;
  cost(1, 0) = 1.0;
  const Vector p(std::vector<double>{0.7, 0.3});
  const Vector q(std::vector<double>{0.4, 0.6});
  ot::SinkhornOptions opts;
  opts.epsilon = 1e-3;
  opts.max_iterations = 5000;

  // The underflowed linear kernel is numerically diagonal — no mass can
  // move — so the linear result cannot pay the true transport cost of
  // 0.3; it reports ~0 against mismatched marginals.
  const auto linear = ot::RunSinkhorn(cost, p, q, opts).value();
  EXPECT_LT(linear.transport_cost, 0.01);

  ot::SinkhornOptions log = opts;
  log.log_domain = true;
  const auto dense = ot::RunSinkhorn(cost, p, q, log).value();
  EXPECT_TRUE(dense.converged);
  EXPECT_NEAR(dense.plan.Sum(), 1.0, 1e-9);
  EXPECT_NEAR(dense.transport_cost, 0.3, 1e-3);  // exact OT cost is 0.3

  const auto sparse =
      ot::RunSinkhornSparse(cost, p, q, log, /*kernel_cutoff=*/0.0).value();
  EXPECT_TRUE(sparse.converged);
  EXPECT_NEAR(sparse.plan.ToDense().Sum(), 1.0, 1e-9);
  EXPECT_NEAR(sparse.transport_cost, 0.3, 1e-3);
}

TEST(LogSinkhornEquivalenceTest, ZeroMassRowsAndColumnsStayEmpty) {
  Matrix cost(3, 3, 0.0);
  cost(0, 1) = 1.0;
  cost(1, 0) = 1.0;
  cost(2, 2) = 0.5;
  const Vector p(std::vector<double>{0.6, 0.4, 0.0});
  const Vector q(std::vector<double>{0.5, 0.0, 0.5});
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.log_domain = true;
  const auto dense = ot::RunSinkhorn(cost, p, q, opts).value();
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(dense.plan(2, j), 0.0);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(dense.plan(i, 1), 0.0);
  EXPECT_EQ(dense.u[2], 0.0);
  EXPECT_EQ(dense.v[1], 0.0);
  EXPECT_NEAR(dense.plan.Sum(), 1.0, 1e-8);

  const auto sparse =
      ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/0.0).value();
  const Matrix sp = sparse.plan.ToDense();
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(sp(2, j), 0.0);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(sp(i, 1), 0.0);
}

// ------------------------------------------------------------- bugfixes --

TEST(LogSinkhornBugfixTest, SupportFlipCannotReadAsConvergence) {
  // Relaxed truncated solve on a (numerically) diagonal kernel where
  // column 1 carries no target mass: lv_1 settles at −inf and (row 1
  // reaching only column 1) lu_1 follows. Warm-start at the converged
  // potentials but with v[1] nudged finite: the next iterations flip
  // lv_1 — and transiently lu_1 — between finite and −inf while every
  // OTHER coordinate is already exactly converged (the nudged column is
  // invisible to row 0, whose kernel entry for it is truncated away).
  // The old delta skipped non-finite differences, so the flips read as
  // Δ = 0 and the loop reported convergence at iteration 1. The fix
  // counts a finite↔−inf flip as Δ = ∞: re-convergence takes > 1
  // iteration.
  Matrix cost(2, 2, 0.0);
  cost(0, 1) = 10.0;  // both off-diagonals truncated away at this cutoff/ε
  cost(1, 0) = 10.0;
  const Vector p(std::vector<double>{0.7, 0.3});
  const Vector q(std::vector<double>{1.0, 0.0});
  ot::SinkhornOptions opts;
  opts.epsilon = 0.5;
  opts.relaxed = true;
  opts.lambda = 20.0;
  opts.log_domain = true;
  const double cutoff = 1e-6;  // e^{-20} << cutoff << e^0

  const auto first = ot::RunSinkhornSparse(cost, p, q, opts, cutoff).value();
  ASSERT_TRUE(first.converged);
  ASSERT_EQ(first.v[1], 0.0);  // the no-mass column

  Vector warm_u = first.u;
  Vector warm_v = first.v;
  warm_v[1] = 0.5;  // mass that is about to disappear again
  const auto second =
      ot::RunSinkhornSparse(cost, p, q, opts, cutoff, &warm_u, &warm_v)
          .value();
  EXPECT_TRUE(second.converged);
  EXPECT_GT(second.iterations, 1u)
      << "support flip was skipped by the convergence delta";
  EXPECT_EQ(second.v[1], 0.0);
}

TEST(LogSinkhornBugfixTest, WarmStartSizeMismatchIsAnError) {
  Matrix cost(2, 2, 0.0);
  const Vector p(std::vector<double>{0.5, 0.5});
  const Vector bad(std::vector<double>{1.0, 1.0, 1.0});
  ot::SinkhornOptions opts;
  for (const bool log_domain : {false, true}) {
    opts.log_domain = log_domain;
    const auto r = ot::RunSinkhorn(cost, p, p, opts, &bad, nullptr);
    ASSERT_FALSE(r.ok()) << "log_domain=" << log_domain;
    EXPECT_NE(r.status().ToString().find("warm_u"), std::string::npos);
    const auto rs =
        ot::RunSinkhornSparse(cost, p, p, opts, 0.0, nullptr, &bad);
    ASSERT_FALSE(rs.ok()) << "log_domain=" << log_domain;
    EXPECT_NE(rs.status().ToString().find("warm_v"), std::string::npos);
  }
  // The engine entry points validate too.
  const linalg::DenseTransportKernel kernel =
      linalg::DenseTransportKernel::FromCost(cost, 0.1, 1);
  EXPECT_FALSE(ot::RunSinkhornScaling(kernel, p, p, opts, &bad).ok());
  const DenseLogTransportKernel log_kernel =
      DenseLogTransportKernel::FromCost(cost, 0.1, 1);
  EXPECT_FALSE(ot::RunSinkhornLogScaling(log_kernel, p, p, opts, &bad).ok());
}

TEST(LogSinkhornBugfixTest, NegativeMarginalsAndNonFiniteCostsRejected) {
  Matrix cost(2, 2, 0.0);
  const Vector ok(std::vector<double>{0.5, 0.5});
  const Vector negative(std::vector<double>{0.7, -0.2});
  ot::SinkhornOptions opts;
  {
    const auto r = ot::RunSinkhorn(cost, negative, ok, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("p[1]"), std::string::npos);
  }
  {
    const auto r = ot::RunSinkhornSparse(cost, ok, negative, opts, 0.0);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("q[1]"), std::string::npos);
  }
  Matrix nan_cost = cost;
  nan_cost(1, 0) = std::nan("");
  {
    const auto r = ot::RunSinkhorn(nan_cost, ok, ok, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("cost(1, 0)"), std::string::npos);
  }
  Matrix inf_cost = cost;
  inf_cost(0, 1) = std::numeric_limits<double>::infinity();
  {
    const auto r = ot::RunSinkhornSparse(inf_cost, ok, ok, opts, 0.0);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("cost(0, 1)"), std::string::npos);
  }
  // A finite cost whose linear Gibbs weight overflows (e^{99/0.1}) is
  // rejected on the linear dense and sparse paths; the log domain takes it.
  Matrix overflow_cost = cost;
  overflow_cost(1, 1) = -99.0;
  ot::SinkhornOptions eps01;
  eps01.epsilon = 0.1;
  {
    const auto dense = ot::RunSinkhorn(overflow_cost, ok, ok, eps01);
    ASSERT_FALSE(dense.ok());
    EXPECT_NE(dense.status().ToString().find("cost(1, 1)"), std::string::npos);
    EXPECT_NE(dense.status().ToString().find("log_domain"), std::string::npos);
    EXPECT_FALSE(ot::RunSinkhornSparse(overflow_cost, ok, ok, eps01, 0.0).ok());
    ot::SinkhornOptions log = eps01;
    log.log_domain = true;
    EXPECT_TRUE(ot::RunSinkhorn(overflow_cost, ok, ok, log).ok());
    EXPECT_TRUE(ot::RunSinkhornSparse(overflow_cost, ok, ok, log, 0.0).ok());
  }
  // FastOtClean guards its streamed cost function too — a NaN would
  // otherwise be silently truncated away or flushed to 0 by the kernels.
  {
    const prob::Domain d = prob::Domain::FromCardinalities({2, 2});
    prob::JointDistribution p(d);
    p[0] = 0.5;
    p[3] = 0.5;
    const ot::LambdaCost nan_lambda_cost(
        [](const std::vector<int>&, const std::vector<int>&) {
          return std::nan("");
        });
    core::FastOtCleanOptions fopts;
    Rng rng(99);
    const auto r = core::FastOtClean(p, prob::CiSpec{{0}, {1}, {}},
                                     nan_lambda_cost, fopts, rng);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("cost("), std::string::npos);
  }
}

TEST(LogSinkhornF32Test, DenseAndSparseF32MatchF64WithinKernelRounding) {
  // f32 tier in the LOG domain: the kernel stores log-K (i.e. −C/ε) as
  // float while the LSE reductions accumulate in double, so plans agree
  // with the f64 log solve within the float-rounding envelope of the
  // exponent (≤ 2⁻²⁴ relative on each kernel entry).
  const size_t m = 12, n = 15;
  const Matrix cost = RandomCost(m, n, 101, 2.0);
  const Vector p = RandomMarginal(m, 102);
  const Vector q = RandomMarginal(n, 103);
  ot::SinkhornOptions f64o;
  f64o.epsilon = 0.08;
  f64o.log_domain = true;
  ot::SinkhornOptions f32o = f64o;
  f32o.precision = linalg::Precision::kFloat32;

  const auto dense64 = ot::RunSinkhorn(cost, p, q, f64o).value();
  const auto dense32 = ot::RunSinkhorn(cost, p, q, f32o).value();
  ASSERT_TRUE(dense64.converged);
  ASSERT_TRUE(dense32.converged);
  EXPECT_TRUE(dense32.plan.ApproxEquals(dense64.plan, 1e-5));
  EXPECT_NEAR(dense32.transport_cost, dense64.transport_cost, 1e-5);

  const double cutoff = 1e-4;
  ot::SinkhornOptions sf64 = f64o, sf32 = f32o;
  sf64.relaxed = sf32.relaxed = true;  // truncation may orphan columns
  const auto sparse64 = ot::RunSinkhornSparse(cost, p, q, sf64, cutoff).value();
  const auto sparse32 = ot::RunSinkhornSparse(cost, p, q, sf32, cutoff).value();
  // Shared sparsity contract: the kept-set is decided on the double cost,
  // so both precisions truncate identically.
  ASSERT_EQ(sparse32.plan.nnz(), sparse64.plan.nnz());
  EXPECT_TRUE(
      sparse32.plan.ToDense().ApproxEquals(sparse64.plan.ToDense(), 1e-5));
  EXPECT_NEAR(sparse32.transport_cost, sparse64.transport_cost, 1e-5);
}

TEST(LogSinkhornF32Test, F32LogSolveBitIdenticalAcrossThreadCounts) {
  // Per-(tier, precision) determinism of the f32 log path: thread count
  // must not change the iterate stream (strip-deterministic reductions),
  // so solves are bit-identical — iterations included — at 1 vs 4
  // threads. Tiers are NOT required to match each other bitwise; the
  // cross-tier contract is the ULP envelope covered above. 800×800
  // (640k nnz) splits across the pool; bit-identity needs no
  // convergence, so the iteration budget stays small.
  const size_t n = 800;
  const Matrix cost = RandomCost(n, n, 111, 2.0);
  const Vector p = RandomMarginal(n, 112);
  const Vector q = RandomMarginal(n, 113);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.08;
  opts.max_iterations = 30;
  opts.log_domain = true;
  opts.precision = linalg::Precision::kFloat32;
  opts.num_threads = 1;
  const auto serial = ot::RunSinkhorn(cost, p, q, opts).value();
  opts.num_threads = 4;
  testing::WorkerChunkProbe probe;
  const auto threaded = ot::RunSinkhorn(cost, p, q, opts).value();
  EXPECT_GE(probe.pooled_chunks(), 4 * threaded.iterations);
  EXPECT_GT(probe.worker_chunks(), 0u);
  EXPECT_EQ(threaded.iterations, serial.iterations);
  EXPECT_TRUE(threaded.u.data() == serial.u.data());
  EXPECT_TRUE(threaded.v.data() == serial.v.data());
}

// ------------------------------------------------------------ end to end --

TEST(LogDomainCleanTest, FastOtCleanLogDomainMatchesLinear) {
  const prob::Domain d = prob::Domain::FromCardinalities({2, 2, 2});
  prob::JointDistribution p(d);
  Rng rng(81);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + rng.NextDouble();
  p.Normalize();
  const prob::CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  core::FastOtCleanOptions opts;
  opts.epsilon = 0.1;
  opts.max_outer_iterations = 200;
  Rng rng_lin(82), rng_log(82);
  const auto linear = core::FastOtClean(p, ci, cost, opts, rng_lin).value();
  core::FastOtCleanOptions log_opts = opts;
  log_opts.log_domain = true;
  const auto logged = core::FastOtClean(p, ci, cost, log_opts, rng_log).value();
  EXPECT_LT(logged.target_cmi, 1e-6);
  EXPECT_NEAR(logged.transport_cost, linear.transport_cost, 1e-5);
  EXPECT_NEAR(logged.target_cmi, linear.target_cmi, 1e-6);
}

TEST(LogDomainCleanTest, TruncatedLogDomainRepairReportsDomain) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 800;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.violation = 0.6;
  gen.seed = 91;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint c({"x"}, {"y"}, {"z0"});
  // Unweighted Euclidean over (x, y, z0): the truncation keeps every x/y
  // flip (the moves a CI repair needs) and drops only far z moves — the
  // default stddev-normalized cost would truncate the kernel to near-
  // diagonal at this cutoff and repair nothing.
  ot::EuclideanCost cost(3);
  core::RepairOptions opts;
  opts.fast.log_domain = true;
  opts.fast.kernel_truncation = 1e-8;
  opts.fast.max_outer_iterations = 60;
  const auto report = core::RepairTable(table, c, opts, &cost).value();
  EXPECT_STREQ(report.sinkhorn_domain, "log");
  EXPECT_TRUE(report.plan_sparse);
  EXPECT_LT(report.final_cmi, report.initial_cmi);
  core::RepairOptions lin = opts;
  lin.fast.log_domain = false;
  const auto lin_report = core::RepairTable(table, c, lin, &cost).value();
  EXPECT_STREQ(lin_report.sinkhorn_domain, "linear");
  EXPECT_NEAR(report.transport_cost, lin_report.transport_cost, 1e-4);
}

}  // namespace
}  // namespace otclean
