#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/fast_otclean.h"
#include "ot/cost.h"
#include "prob/independence.h"

namespace otclean::core {
namespace {

using prob::CiSpec;
using prob::Domain;
using prob::JointDistribution;

/// The bag D2 of Example 3.3/3.4: {(1,0,0), (1,0,1), (1,1,0), (1,1,0)} over
/// binary (X, Y, Z), violating Y ⟂ Z.
JointDistribution MakeD2() {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  std::vector<double> counts(8, 0.0);
  counts[d.Encode({1, 0, 0})] += 1;
  counts[d.Encode({1, 0, 1})] += 1;
  counts[d.Encode({1, 1, 0})] += 2;
  return JointDistribution::FromCounts(d, counts);
}

/// A randomly violated 3-attribute distribution.
JointDistribution MakeViolated(uint64_t seed) {
  const Domain d = Domain::FromCardinalities({2, 2, 3});
  JointDistribution p(d);
  Rng rng(seed);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.02 + rng.NextDouble();
  p.Normalize();
  return p;
}

FastOtCleanOptions DefaultOptions() {
  FastOtCleanOptions opts;
  opts.epsilon = 0.1;
  opts.lambda = 100.0;
  opts.max_outer_iterations = 500;
  opts.outer_tolerance = 1e-7;
  return opts;
}

TEST(FastOtCleanTest, TargetSatisfiesCiOnD2) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};  // Y ⟂ Z
  ot::EuclideanCost cost(3);
  Rng rng(1);
  // A step is a few inner sweeps, so the step budget is the library's.
  FastOtCleanOptions opts = DefaultOptions();
  opts.max_outer_iterations = FastOtCleanOptions{}.max_outer_iterations;
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_LT(r.target_cmi, 1e-6);
  EXPECT_TRUE(r.converged);
}

TEST(FastOtCleanTest, D2RepairCostIsNearQuarter) {
  // Example 3.4: the optimal probabilistic repair of D2 moves 1/4 of the
  // mass a distance of 1 (cost 0.25). Entropic smoothing inflates this a
  // little; it must stay well below the trivial repair cost.
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  Rng rng(2);
  FastOtCleanOptions opts = DefaultOptions();
  opts.epsilon = 0.03;  // sharp plan
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_LT(r.transport_cost, 0.5);
  EXPECT_GT(r.transport_cost, 0.05);
}

TEST(FastOtCleanTest, PlanSourceMarginalMatchesData) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  Rng rng(3);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  const auto src = r.plan.SourceMarginal();
  // Rows correspond to the three distinct tuples of D2 (active domain).
  ASSERT_EQ(src.size(), 3u);
  double total = 0.0;
  for (size_t i = 0; i < src.size(); ++i) total += src[i];
  EXPECT_NEAR(total, 1.0, 0.05);
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_NEAR(src[i], p[r.plan.row_cells()[i]], 0.05);
  }
}

TEST(FastOtCleanTest, ActiveDomainRestrictsRows) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  Rng rng(4);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_EQ(r.plan.row_cells().size(), 3u);   // 3 distinct tuples
  EXPECT_EQ(r.plan.col_cells().size(), 3u);   // columns are the same cells
  EXPECT_EQ(r.plan.col_cells(), r.plan.row_cells());
  EXPECT_LT(r.target_cmi, 1e-6);
}

TEST(FastOtCleanTest, ConditionalCiWithZ) {
  const auto p = MakeViolated(11);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  Rng rng(6);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_LT(r.target_cmi, 1e-6);
  EXPECT_GT(prob::ConditionalMutualInformation(p, ci), r.target_cmi);
}

TEST(FastOtCleanTest, ObjectiveTraceIsRecorded) {
  const auto p = MakeViolated(12);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  Rng rng(7);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_EQ(r.objective_trace.size(), r.outer_iterations);
  EXPECT_GT(r.total_sinkhorn_iterations, r.outer_iterations);
}

TEST(FastOtCleanTest, NmfInitConvergesFasterThanRandom) {
  // Section 5 / Fig. 10b: NMF initialization reduces outer iterations.
  const auto p = MakeViolated(13);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions nmf = DefaultOptions();
  nmf.nmf_init = true;
  FastOtCleanOptions rnd = DefaultOptions();
  rnd.nmf_init = false;
  Rng r1(8), r2(8);
  const auto a = FastOtClean(p, ci, cost, nmf, r1).value();
  const auto b = FastOtClean(p, ci, cost, rnd, r2).value();
  EXPECT_LE(a.outer_iterations, b.outer_iterations + 2);
}

TEST(FastOtCleanTest, WarmStartReducesTotalSinkhornIterations) {
  // Section 5 / Fig. 11b, which solves every inner problem exactly.
  const auto p = MakeViolated(14);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions warm = DefaultOptions();
  warm.max_sinkhorn_iterations = 5000;
  warm.sinkhorn_tolerance = 1e-9;
  warm.warm_start = true;
  FastOtCleanOptions cold = warm;
  cold.warm_start = false;
  Rng r1(9), r2(9);
  const auto a = FastOtClean(p, ci, cost, warm, r1).value();
  const auto b = FastOtClean(p, ci, cost, cold, r2).value();
  EXPECT_LT(a.total_sinkhorn_iterations, b.total_sinkhorn_iterations);
}

TEST(FastOtCleanTest, ColdStartedSweepsNeverReportConverged) {
  // Five cold sweeps per step never solve an inner problem; their ΔQ can
  // still settle (at cost 0.0149 here, far from the answer), so a ΔQ test
  // alone would report a wrong plan as converged.
  const auto p = MakeViolated(14);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.max_outer_iterations = FastOtCleanOptions{}.max_outer_iterations;
  opts.warm_start = false;
  Rng r1(9);
  EXPECT_FALSE(FastOtClean(p, ci, cost, opts, r1).value().converged);

  // Warm-started, the same sweeps converge to the exact-inner answer.
  opts.warm_start = true;
  Rng r2(9);
  const auto warm = FastOtClean(p, ci, cost, opts, r2).value();
  FastOtCleanOptions exact = DefaultOptions();
  exact.max_sinkhorn_iterations = 5000;
  exact.sinkhorn_tolerance = 1e-9;
  Rng r3(9);
  const auto reference = FastOtClean(p, ci, cost, exact, r3).value();
  ASSERT_TRUE(reference.converged);
  EXPECT_NEAR(reference.transport_cost, 0.043229466, 1e-8);
  EXPECT_TRUE(warm.converged);
  EXPECT_NEAR(warm.transport_cost, reference.transport_cost,
              1e-4 * reference.transport_cost);
}

TEST(FastOtCleanTest, MultiWithOneSpecIsFastOtCleanBitForBit) {
  const auto p = MakeViolated(17);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.max_outer_iterations = 12;
  Rng r1(18), r2(18);
  const auto single = FastOtClean(p, ci, cost, opts, r1).value();
  const auto multi = FastOtCleanMulti(p, {ci}, cost, opts, r2).value();
  EXPECT_EQ(single.plan.Densify().data(), multi.plan.Densify().data());
  EXPECT_EQ(single.objective_trace, multi.objective_trace);
  EXPECT_EQ(single.transport_cost, multi.transport_cost);
  EXPECT_EQ(single.target_cmi, multi.target_cmi);
  EXPECT_EQ(single.outer_iterations, multi.outer_iterations);
  EXPECT_EQ(single.total_sinkhorn_iterations,
            multi.total_sinkhorn_iterations);
}

TEST(FastOtCleanTest, AlreadyConsistentInputIsNearIdentity) {
  // A CI-consistent distribution should be (almost) untouched.
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  const double pz[2] = {0.5, 0.5};
  const double px[2] = {0.4, 0.6};
  const double py[2] = {0.7, 0.2};
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        const double fx = (x == 1) ? px[z] : 1 - px[z];
        const double fy = (y == 1) ? py[z] : 1 - py[z];
        p[d.Encode({x, y, z})] = pz[z] * fx * fy;
      }
    }
  }
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.epsilon = 0.02;
  Rng rng(12);
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_LT(r.transport_cost, 0.1);
  EXPECT_LT(r.target.TotalVariation(p), 0.1);
}

TEST(FastOtCleanTest, RejectsBadInputs) {
  const CiSpec ci{{0}, {1}, {}};
  ot::EuclideanCost cost(2);
  Rng rng(13);
  // Unnormalized input.
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[0] = 2.0;
  EXPECT_FALSE(FastOtClean(p, ci, cost, DefaultOptions(), rng).ok());
  // Zero mass.
  JointDistribution z(d);
  EXPECT_FALSE(FastOtClean(z, ci, cost, DefaultOptions(), rng).ok());
  // No Sinkhorn budget: this used to return ok and "converged" with the
  // unscaled Gibbs kernel as its plan.
  const JointDistribution u = JointDistribution::Uniform(d);
  FastOtCleanOptions bad = DefaultOptions();
  bad.max_sinkhorn_iterations = 0;
  EXPECT_EQ(FastOtClean(u, ci, cost, bad, rng).status().code(),
            StatusCode::kInvalidArgument);
}

/// A cost of `penalty` between tuples differing in the first attribute
/// and 1 between other distinct tuples.
ot::LambdaCost FirstAttributePenaltyCost(double penalty) {
  return ot::LambdaCost(
      [penalty](const std::vector<int>& a, const std::vector<int>& b) {
        if (a == b) return 0.0;
        return a[0] != b[0] ? penalty : 1.0;
      });
}

TEST(FastOtCleanTest, LinearKernelsRejectCostsWhoseGibbsWeightOverflows) {
  // e^{−C/ε} is +inf in f64 below C = −ε·ln(DBL_MAX) ≈ −71 at ε = 0.1, and
  // in f32 storage below −ε·ln(FLT_MAX) ≈ −8.9. An infinite kernel entry
  // is clamped away by the scaling update, so the solve used to return ok
  // on a plan ignoring those moves; it is now InvalidArgument, naming the
  // entry and pointing at log_domain, which stores −C/ε and solves it.
  const Domain d = Domain::FromCardinalities({3, 3, 2});
  JointDistribution p(d);
  Rng data_rng(17);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + data_rng.NextDouble();
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  FastOtCleanOptions opts = DefaultOptions();
  opts.max_outer_iterations = 50;

  const auto expect_rejected = [&](const FastOtCleanOptions& o,
                                   const ot::CostFunction& cost) {
    Rng rng(3);
    const auto r = FastOtClean(p, ci, cost, o, rng);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("cost("), std::string::npos);
    EXPECT_NE(r.status().ToString().find("log_domain"), std::string::npos);
  };
  const auto expect_solved = [&](const FastOtCleanOptions& o,
                                 const ot::CostFunction& cost) {
    Rng rng(3);
    const auto r = FastOtClean(p, ci, cost, o, rng);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(std::isfinite(r->transport_cost));
    EXPECT_LT(r->transport_cost, -1.0);  // the negative moves are taken
  };

  const ot::LambdaCost f64_overflow = FirstAttributePenaltyCost(-99.0);
  const ot::LambdaCost f32_overflow = FirstAttributePenaltyCost(-49.0);
  FastOtCleanOptions f32 = opts;
  f32.precision = linalg::Precision::kFloat32;
  FastOtCleanOptions log = opts;
  log.log_domain = true;
  FastOtCleanOptions log_f32 = f32;
  log_f32.log_domain = true;

  expect_rejected(opts, f64_overflow);
  expect_rejected(f32, f64_overflow);
  expect_rejected(f32, f32_overflow);
  expect_solved(opts, f32_overflow);  // −49 fits f64
  expect_solved(log, f64_overflow);
  expect_solved(log_f32, f32_overflow);
}

TEST(FastOtCleanTest, RejectsNonFiniteOrNonPositiveEpsilonAndLambda) {
  // Regression: λ = −1 returned ok with cost ~1e-21 (nothing repaired),
  // λ = −0.1 returned cost ~1e297, and a NaN ε ended in a retryable
  // Internal "plan lost all mass".
  const auto p = MakeViolated(21);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_invalid = [&](const FastOtCleanOptions& opts) {
    Rng rng(22);
    const auto single = FastOtClean(p, ci, cost, opts, rng);
    EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
    const auto multi = FastOtCleanMulti(p, {ci}, cost, opts, rng);
    EXPECT_EQ(multi.status().code(), StatusCode::kInvalidArgument);
  };
  for (const double lambda : {-1.0, -0.1, 0.0, nan, inf}) {
    SCOPED_TRACE(lambda);
    FastOtCleanOptions opts = DefaultOptions();
    opts.lambda = lambda;
    expect_invalid(opts);
  }
  for (const double eps : {nan, inf, 0.0, -0.05}) {
    SCOPED_TRACE(eps);
    FastOtCleanOptions opts = DefaultOptions();
    opts.epsilon = eps;
    expect_invalid(opts);
  }
}

TEST(FastOtCleanTest, ErrorsNameTheCalledEntryPoint) {
  // Single-constraint errors used to read "FastOtCleanMulti: ...".
  const CiSpec ci{{0}, {1}, {}};
  ot::EuclideanCost cost(2);
  JointDistribution unnormalized(Domain::FromCardinalities({2, 2}));
  unnormalized[0] = 2.0;
  const auto starts_with = [](const Status& s, const std::string& prefix) {
    return s.message().rfind(prefix, 0) == 0;
  };
  FastOtCleanOptions opts = DefaultOptions();
  Rng rng(25);
  const auto r = FastOtClean(unnormalized, ci, cost, opts, rng);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(starts_with(r.status(), "FastOtClean: "))
      << r.status().message();
  opts.epsilon = std::numeric_limits<double>::quiet_NaN();
  const auto e = FastOtClean(MakeViolated(26), {{0}, {1}, {2}},
                             ot::EuclideanCost(3), opts, rng);
  EXPECT_TRUE(starts_with(e.status(), "FastOtClean: "))
      << e.status().message();
  const auto m =
      FastOtCleanMulti(unnormalized, {ci}, cost, DefaultOptions(), rng);
  EXPECT_TRUE(starts_with(m.status(), "FastOtCleanMulti: "))
      << m.status().message();
}

TEST(FastOtCleanTest, SharperEpsilonLowersTransportCost) {
  const auto p = MakeViolated(17);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions sharp = DefaultOptions();
  sharp.epsilon = 0.02;
  FastOtCleanOptions smooth = DefaultOptions();
  smooth.epsilon = 1.0;
  Rng r1(14), r2(14);
  const auto a = FastOtClean(p, ci, cost, sharp, r1).value();
  const auto b = FastOtClean(p, ci, cost, smooth, r2).value();
  EXPECT_LT(a.transport_cost, b.transport_cost + 1e-9);
}

}  // namespace
}  // namespace otclean::core
