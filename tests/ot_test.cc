#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/log_transport_kernel.h"
#include "linalg/transport_kernel.h"
#include "ot/cost.h"
#include "ot/exact.h"
#include "ot/plan.h"
#include "ot/sinkhorn.h"

namespace otclean::ot {
namespace {

// ------------------------------------------------------------------ Cost --

TEST(CostTest, EuclideanUnitWeights) {
  EuclideanCost c(3);
  EXPECT_DOUBLE_EQ(c.Cost({0, 0, 0}, {0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(c.Cost({0, 0, 0}, {1, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(c.Cost({0, 0, 0}, {3, 4, 0}), 5.0);
}

TEST(CostTest, EuclideanScaled) {
  EuclideanCost c(std::vector<double>{2.0, 1.0});
  EXPECT_DOUBLE_EQ(c.Cost({0, 0}, {1, 0}), 2.0);
}

TEST(CostTest, Hamming) {
  HammingCost c;
  EXPECT_DOUBLE_EQ(c.Cost({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(c.Cost({1, 2, 3}, {0, 2, 4}), 2.0);
}

TEST(CostTest, CosineEdgeCases) {
  CosineCost c;
  EXPECT_DOUBLE_EQ(c.Cost({0, 0}, {0, 0}), 0.0);   // both zero
  EXPECT_DOUBLE_EQ(c.Cost({0, 0}, {1, 0}), 1.0);   // one zero
  EXPECT_NEAR(c.Cost({1, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(c.Cost({1, 0}, {0, 1}), 1.0, 1e-12);
}

TEST(CostTest, CorrelationCost) {
  CorrelationCost c;
  // Perfectly correlated vectors -> cost 0.
  EXPECT_NEAR(c.Cost({0, 1, 2}, {1, 2, 3}), 0.0, 1e-12);
  // Anti-correlated -> cost 2.
  EXPECT_NEAR(c.Cost({0, 1, 2}, {2, 1, 0}), 2.0, 1e-12);
  // Constant vector: falls back to equality test.
  EXPECT_DOUBLE_EQ(c.Cost({1, 1}, {1, 1}), 0.0);
}

TEST(CostTest, LambdaCostWraps) {
  LambdaCost c([](const std::vector<int>& a, const std::vector<int>& b) {
    return a == b ? 0.0 : 42.0;
  });
  EXPECT_DOUBLE_EQ(c.Cost({1}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(c.Cost({1}, {2}), 42.0);
}

TEST(CostTest, FairnessCostFreezesProtectedAttrs) {
  FairnessCost c({0}, 3, 1e6);
  EXPECT_DOUBLE_EQ(c.Cost({0, 1, 2}, {0, 1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(c.Cost({0, 1, 2}, {1, 1, 2}), 1e6);   // frozen changed
  EXPECT_DOUBLE_EQ(c.Cost({0, 1, 2}, {0, 3, 2}), 2.0);   // free attr moved
}

TEST(CostTest, WeightedEuclidean) {
  WeightedEuclideanCost c(std::vector<double>{3.0, 0.0});
  EXPECT_DOUBLE_EQ(c.Cost({0, 0}, {1, 5}), 3.0);
}

TEST(CostTest, BuildCostMatrixFullDomain) {
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  HammingCost h;
  const linalg::Matrix c = BuildCostMatrix(dom, h);
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(c(0, 3), 2.0);  // (0,0) vs (1,1)
}

TEST(CostTest, BuildCostMatrixRestricted) {
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  HammingCost h;
  const linalg::Matrix c = BuildCostMatrix(dom, {1, 2}, {0}, h);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0);  // (0,1)->(0,0)
}

TEST(CostTest, InverseStddevWeights) {
  // Attribute 0 varies {0,1} evenly (std 0.5 -> weight 2), attribute 1
  // constant (weight 1).
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  linalg::Vector p(4, 0.0);
  p[dom.Encode({0, 0})] = 0.5;
  p[dom.Encode({1, 0})] = 0.5;
  const auto w = InverseStddevWeights(dom, p);
  EXPECT_NEAR(w[0], 2.0, 1e-9);
  EXPECT_NEAR(w[1], 1.0, 1e-9);
}

// -------------------------------------------------------------- Sinkhorn --

linalg::Matrix SimpleCost() {
  linalg::Matrix c(2, 2);
  c(0, 0) = 0.0;
  c(0, 1) = 1.0;
  c(1, 0) = 1.0;
  c(1, 1) = 0.0;
  return c;
}

TEST(SinkhornTest, ClassicMatchesMarginals) {
  SinkhornOptions opts;
  opts.epsilon = 0.05;
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  const auto r = RunSinkhorn(SimpleCost(), p, q, opts).value();
  EXPECT_TRUE(r.converged);
  const auto rows = r.plan.RowSums();
  const auto cols = r.plan.ColSums();
  EXPECT_NEAR(rows[0], 0.7, 1e-6);
  EXPECT_NEAR(cols[1], 0.6, 1e-6);
}

TEST(SinkhornTest, CostApproachesExactOtAsEpsilonShrinks) {
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  SinkhornOptions tight;
  tight.epsilon = 0.01;
  SinkhornOptions loose;
  loose.epsilon = 1.0;
  const double cost_tight =
      RunSinkhorn(SimpleCost(), p, q, tight)->transport_cost;
  const double cost_loose =
      RunSinkhorn(SimpleCost(), p, q, loose)->transport_cost;
  // Exact OT cost is 0.3 (see lp_test); entropic smoothing inflates it.
  EXPECT_NEAR(cost_tight, 0.3, 0.02);
  EXPECT_GT(cost_loose, cost_tight);
}

TEST(SinkhornTest, HigherEpsilonSpreadsThePlan) {
  // Fig. 1's qualitative claim: larger regularization -> higher entropy.
  linalg::Vector p(std::vector<double>{0.5, 0.5});
  linalg::Vector q(std::vector<double>{0.5, 0.5});
  SinkhornOptions sharp;
  sharp.epsilon = 0.02;
  SinkhornOptions smooth;
  smooth.epsilon = 2.0;
  const auto r1 = RunSinkhorn(SimpleCost(), p, q, sharp).value();
  const auto r2 = RunSinkhorn(SimpleCost(), p, q, smooth).value();
  EXPECT_GT(PlanEntropy(r2.plan), PlanEntropy(r1.plan));
}

TEST(SinkhornTest, RelaxedModeRunsAndStaysClose) {
  SinkhornOptions opts;
  opts.epsilon = 0.05;
  opts.relaxed = true;
  opts.lambda = 100.0;
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  const auto r = RunSinkhorn(SimpleCost(), p, q, opts).value();
  const auto rows = r.plan.RowSums();
  // Relaxed marginals approximately match for large lambda.
  EXPECT_NEAR(rows[0], 0.7, 0.05);
}

TEST(SinkhornTest, RelaxedSmallLambdaLoosensMarginals) {
  SinkhornOptions strict;
  strict.epsilon = 0.05;
  strict.relaxed = true;
  strict.lambda = 1000.0;
  SinkhornOptions loose = strict;
  loose.lambda = 0.1;
  linalg::Vector p(std::vector<double>{0.9, 0.1});
  linalg::Vector q(std::vector<double>{0.1, 0.9});
  const auto rs = RunSinkhorn(SimpleCost(), p, q, strict).value();
  const auto rl = RunSinkhorn(SimpleCost(), p, q, loose).value();
  const double err_s = std::fabs(rs.plan.RowSums()[0] - 0.9);
  const double err_l = std::fabs(rl.plan.RowSums()[0] - 0.9);
  EXPECT_LT(err_s, err_l);
}

TEST(SinkhornTest, WarmStartReducesIterations) {
  SinkhornOptions opts;
  opts.epsilon = 0.05;
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  const auto cold = RunSinkhorn(SimpleCost(), p, q, opts).value();
  // Warm-start from the converged scalings of a nearby problem.
  linalg::Vector q2(std::vector<double>{0.41, 0.59});
  const auto warm =
      RunSinkhorn(SimpleCost(), p, q2, opts, &cold.u, &cold.v).value();
  const auto cold2 = RunSinkhorn(SimpleCost(), p, q2, opts).value();
  EXPECT_LE(warm.iterations, cold2.iterations);
}

TEST(SinkhornTest, StoppingIsScaleFree) {
  // Scaling both marginals by a power of two scales every row scaling by
  // exactly that factor and leaves the column scalings bit-identical, so a
  // scale-free residual stops every run at the same iteration. (An absolute
  // change metric stops the 2^20 run later and the 2^-20 run sooner.)
  const size_t m = 5, n = 6;
  linalg::Matrix cost(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(i) / (m - 1) -
                       static_cast<double>(j) / (n - 1);
      cost(i, j) = d * d;
    }
  }
  const auto kernel = linalg::DenseTransportKernel::FromCost(cost, 0.1, 1);
  linalg::Vector p(std::vector<double>{0.1, 0.3, 0.2, 0.25, 0.15});
  linalg::Vector q(std::vector<double>{0.2, 0.1, 0.15, 0.2, 0.05, 0.3});
  SinkhornOptions opts;
  const SinkhornScaling base = RunSinkhornScaling(kernel, p, q, opts).value();
  ASSERT_TRUE(base.converged);
  for (const double scale : {std::ldexp(1.0, -20), std::ldexp(1.0, 20)}) {
    SCOPED_TRACE(scale);
    const SinkhornScaling scaled =
        RunSinkhornScaling(kernel, p * scale, q * scale, opts).value();
    EXPECT_TRUE(scaled.converged);
    EXPECT_EQ(scaled.iterations, base.iterations);
    for (size_t i = 0; i < m; ++i) EXPECT_EQ(scaled.u[i], scale * base.u[i]);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(scaled.v[j], base.v[j]);
  }
}

TEST(SinkhornTest, RejectsBadInputs) {
  SinkhornOptions opts;
  linalg::Vector p(std::vector<double>{1.0});
  linalg::Vector q(std::vector<double>{0.5, 0.5});
  EXPECT_FALSE(RunSinkhorn(SimpleCost(), p, q, opts).ok());
  opts.epsilon = -1.0;
  linalg::Vector p2(std::vector<double>{0.5, 0.5});
  EXPECT_FALSE(RunSinkhorn(SimpleCost(), p2, q, opts).ok());
}

TEST(SinkhornTest, RejectsZeroMaxIterationsAndNonPositiveTolerance) {
  // Regression for the silent-options bug: max_iterations == 0 used to
  // return the unsolved cold-start scalings as a "converged: false"
  // result, and tolerance <= 0 burned the full budget on a threshold
  // that can never be met. Both are loud InvalidArguments now.
  linalg::Vector p(std::vector<double>{0.5, 0.5});
  linalg::Vector q(std::vector<double>{0.5, 0.5});
  SinkhornOptions opts;
  opts.max_iterations = 0;
  EXPECT_FALSE(RunSinkhorn(SimpleCost(), p, q, opts).ok());
  EXPECT_FALSE(RunSinkhornSparse(SimpleCost(), p, q, opts, 1e-9).ok());
  // The prebuilt-kernel entry points reject a zero budget too, but accept
  // a zero tolerance: there it asks for a fixed-count run.
  const auto kernel =
      linalg::DenseTransportKernel::FromCost(SimpleCost(), 0.1, 1);
  const auto log_kernel =
      linalg::DenseLogTransportKernel::FromCost(SimpleCost(), 0.1, 1);
  EXPECT_EQ(RunSinkhornScaling(kernel, p, q, opts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunSinkhornLogScaling(log_kernel, p, q, opts).status().code(),
            StatusCode::kInvalidArgument);
  const linalg::Vector skewed(std::vector<double>{0.3, 0.7});
  opts.max_iterations = 7;
  opts.tolerance = 0.0;
  const SinkhornScaling fixed =
      RunSinkhornScaling(kernel, p, skewed, opts).value();
  EXPECT_EQ(fixed.iterations, 7u);
  EXPECT_FALSE(fixed.converged);

  opts = SinkhornOptions{};
  opts.tolerance = 0.0;
  EXPECT_FALSE(RunSinkhorn(SimpleCost(), p, q, opts).ok());
  opts.tolerance = -1e-6;
  EXPECT_FALSE(RunSinkhorn(SimpleCost(), p, q, opts).ok());
  opts.tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(RunSinkhorn(SimpleCost(), p, q, opts).ok());
}

TEST(SinkhornTest, RejectsNonFiniteOrNonPositiveEpsilonAndLambda) {
  // Regression: a NaN ε passed the `epsilon <= 0` check and ended in a
  // retryable "plan lost all mass", and a NaN λ in relaxed mode returned
  // an all-zero plan marked converged. Every entry point rejects both.
  const linalg::Matrix cost = SimpleCost();
  const linalg::Vector p(std::vector<double>{0.5, 0.5});
  const linalg::Vector q(std::vector<double>{0.5, 0.5});
  const auto kernel = linalg::DenseTransportKernel::FromCost(cost, 0.1, 1);
  const auto log_kernel =
      linalg::DenseLogTransportKernel::FromCost(cost, 0.1, 1);
  const auto expect_invalid = [&](const SinkhornOptions& opts) {
    EXPECT_EQ(RunSinkhorn(cost, p, q, opts).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunSinkhornSparse(cost, p, q, opts, 0.0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunSinkhornScaling(kernel, p, q, opts).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(RunSinkhornLogScaling(log_kernel, p, q, opts).status().code(),
              StatusCode::kInvalidArgument);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double eps : {nan, inf, 0.0, -0.1}) {
    SCOPED_TRACE(eps);
    SinkhornOptions opts;
    opts.epsilon = eps;
    expect_invalid(opts);
  }
  for (const double lambda : {nan, inf, 0.0, -0.1, -1.0}) {
    SCOPED_TRACE(lambda);
    SinkhornOptions opts;
    opts.relaxed = true;
    opts.lambda = lambda;
    expect_invalid(opts);
  }
  // λ only enters the relaxed update; hard-marginal solves ignore it.
  SinkhornOptions hard;
  hard.lambda = nan;
  EXPECT_TRUE(RunSinkhorn(cost, p, q, hard).ok());
}

TEST(SinkhornF32Test, F32MatchesF64Optimum) {
  // An f32-kernel solve lands on the same optimum as the f64 solve,
  // within the kernel-rounding envelope.
  linalg::Matrix cost(8, 8);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      const double d = (static_cast<double>(i) - static_cast<double>(j)) / 8;
      cost(i, j) = d * d;
    }
  }
  linalg::Vector p(8, 0.125), q(8);
  for (size_t i = 0; i < 8; ++i) q[i] = (i + 1) / 36.0;

  SinkhornOptions f64o;
  f64o.epsilon = 0.02;
  f64o.num_threads = 1;
  SinkhornOptions f32o = f64o;
  f32o.precision = linalg::Precision::kFloat32;

  const auto rd = RunSinkhorn(cost, p, q, f64o).value();
  const auto rf = RunSinkhorn(cost, p, q, f32o).value();
  EXPECT_TRUE(rd.converged);
  EXPECT_TRUE(rf.converged);
  EXPECT_NEAR(rf.transport_cost, rd.transport_cost, 1e-5);
}

TEST(SinkhornTest, PlanEntropyOfPointMass) {
  linalg::Matrix plan(2, 2, 0.0);
  plan(0, 0) = 1.0;
  EXPECT_NEAR(PlanEntropy(plan), 0.0, 1e-12);
}

// ------------------------------------------------------------------ Plan --

TEST(PlanTest, ConditionalRowNormalizes) {
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  linalg::Matrix m(1, 4, 0.0);
  m(0, 1) = 0.2;
  m(0, 3) = 0.6;
  TransportPlan plan(dom, {1}, {0, 1, 2, 3}, m);
  const auto cond = plan.ConditionalRow(0);
  EXPECT_NEAR(cond[1], 0.25, 1e-12);
  EXPECT_NEAR(cond[3], 0.75, 1e-12);
}

TEST(PlanTest, SampleRepairUnknownCellIsIdentity) {
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  linalg::Matrix m(1, 4, 0.25);
  TransportPlan plan(dom, {1}, {0, 1, 2, 3}, m);
  Rng rng(1);
  EXPECT_EQ(plan.SampleRepair(3, rng), 3u);  // 3 not in row support
}

TEST(PlanTest, MapRepairPicksArgmax) {
  const prob::Domain dom = prob::Domain::FromCardinalities({4});
  linalg::Matrix m(1, 4, 0.0);
  m(0, 2) = 0.9;
  m(0, 0) = 0.1;
  TransportPlan plan(dom, {0}, {0, 1, 2, 3}, m);
  EXPECT_EQ(plan.MapRepair(0), 2u);
}

TEST(PlanTest, SampleRepairFollowsConditional) {
  const prob::Domain dom = prob::Domain::FromCardinalities({4});
  linalg::Matrix m(1, 4, 0.0);
  m(0, 1) = 0.5;
  m(0, 2) = 0.5;
  TransportPlan plan(dom, {0}, {0, 1, 2, 3}, m);
  Rng rng(7);
  int count1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const size_t out = plan.SampleRepair(0, rng);
    ASSERT_TRUE(out == 1 || out == 2);
    if (out == 1) ++count1;
  }
  EXPECT_NEAR(count1 / static_cast<double>(n), 0.5, 0.03);
}

TEST(PlanTest, MasslessRowIsIdentity) {
  const prob::Domain dom = prob::Domain::FromCardinalities({4});
  linalg::Matrix m(1, 4, 0.0);
  TransportPlan plan(dom, {0}, {0, 1, 2, 3}, m);
  Rng rng(9);
  EXPECT_EQ(plan.SampleRepair(0, rng), 0u);
  EXPECT_EQ(plan.MapRepair(0), 0u);
}

// ----------------------------------------------------------------- Exact --

TEST(ExactOtTest, ZeroForIdenticalDistributions) {
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  auto p = prob::JointDistribution::Uniform(dom);
  EuclideanCost cost(2);
  EXPECT_NEAR(ExactOtDistance(p, p, cost).value(), 0.0, 1e-9);
}

TEST(ExactOtTest, MatchesHandComputedValue) {
  const prob::Domain dom = prob::Domain::FromCardinalities({2});
  prob::JointDistribution p(dom), q(dom);
  p[0] = 1.0;
  q[0] = 0.4;
  q[1] = 0.6;
  EuclideanCost cost(1);
  // Move 0.6 mass a distance of 1.
  EXPECT_NEAR(ExactOtDistance(p, q, cost).value(), 0.6, 1e-9);
}

TEST(ExactOtTest, SymmetricForMetricCosts) {
  const prob::Domain dom = prob::Domain::FromCardinalities({3});
  prob::JointDistribution p(dom), q(dom);
  p[0] = 0.5;
  p[2] = 0.5;
  q[1] = 1.0;
  EuclideanCost cost(1);
  const double pq = ExactOtDistance(p, q, cost).value();
  const double qp = ExactOtDistance(q, p, cost).value();
  EXPECT_NEAR(pq, qp, 1e-9);
  EXPECT_NEAR(pq, 1.0, 1e-9);
}

TEST(ExactOtTest, RejectsDomainMismatchAndZeroMeasure) {
  const prob::Domain d1 = prob::Domain::FromCardinalities({2});
  const prob::Domain d2 = prob::Domain::FromCardinalities({3});
  prob::JointDistribution p(d1), q(d2);
  EuclideanCost cost(1);
  EXPECT_FALSE(ExactOtDistance(p, q, cost).ok());
  prob::JointDistribution z1(d1), z2(d1);
  EXPECT_FALSE(ExactOtDistance(z1, z2, cost).ok());
}

TEST(ExactOtTest, RejectsNonFiniteCostWithIndexedMessage) {
  // A NaN cost entry must be caught up front with the same row/col-indexed
  // InvalidArgument the Sinkhorn path produces — not propagate into a NaN
  // distance or a silently wrong plan. Both marginals have full support
  // here, so support row/col ids coincide with encoded cell ids.
  const prob::Domain dom = prob::Domain::FromCardinalities({2, 2});
  auto p = prob::JointDistribution::Uniform(dom);
  prob::JointDistribution q(dom);
  q[0] = 0.1;
  q[1] = 0.4;
  q[2] = 0.3;
  q[3] = 0.2;
  LambdaCost cost([&dom](const std::vector<int>& a, const std::vector<int>& b) {
    if (dom.Encode(a) == 2 && dom.Encode(b) == 1) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return 1.0;
  });
  const auto r = ExactOtDistance(p, q, cost);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("ExactOtDistance"), std::string::npos);
  EXPECT_NE(r.status().message().find("cost(2, 1)"), std::string::npos);
  EXPECT_NE(r.status().message().find("not finite"), std::string::npos);
}

TEST(ExactOtTest, MatchesLogDomainSinkhornAsEpsilonVanishes) {
  // The paper-figure gate in miniature: the LP-exact distance and a sharply
  // regularized log-domain Sinkhorn solve must agree as ε → 0 (entropic
  // bias vanishes; the log domain keeps the tiny-ε kernel from underflowing).
  const prob::Domain dom = prob::Domain::FromCardinalities({3, 3});
  prob::JointDistribution p(dom), q(dom);
  for (size_t i = 0; i < dom.TotalSize(); ++i) {
    p[i] = 1.0 + static_cast<double>((3 * i + 1) % 7);
    q[i] = 1.0 + static_cast<double>((5 * i + 2) % 5);
  }
  p.Normalize();
  q.Normalize();
  EuclideanCost cost(2);
  const double exact = ExactOtDistance(p, q, cost).value();
  ASSERT_GT(exact, 0.0);

  const linalg::Matrix cm = BuildCostMatrix(dom, cost);
  double mean_cost = 0.0;
  for (const double c : cm.data()) mean_cost += c;
  mean_cost /= static_cast<double>(cm.size());

  SinkhornOptions opts;
  opts.log_domain = true;
  opts.epsilon = 1e-3 * mean_cost;
  opts.max_iterations = 50000;
  opts.tolerance = 1e-11;
  linalg::Vector pv(p.size()), qv(q.size());
  for (size_t i = 0; i < p.size(); ++i) pv[i] = p[i];
  for (size_t i = 0; i < q.size(); ++i) qv[i] = q[i];
  const auto r = RunSinkhorn(cm, pv, qv, opts).value();
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.transport_cost, exact,
              std::max(0.02 * exact, 2e-3 * mean_cost));
}

}  // namespace
}  // namespace otclean::ot
