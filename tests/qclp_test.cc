#include <gtest/gtest.h>

#include "core/qclp_cleaner.h"
#include "ot/cost.h"
#include "prob/independence.h"

namespace otclean::core {
namespace {

using prob::CiSpec;
using prob::Domain;
using prob::JointDistribution;

JointDistribution MakeD2() {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  std::vector<double> counts(8, 0.0);
  counts[d.Encode({1, 0, 0})] += 1;
  counts[d.Encode({1, 0, 1})] += 1;
  counts[d.Encode({1, 1, 0})] += 2;
  return JointDistribution::FromCounts(d, counts);
}

TEST(QclpTest, D2TargetSatisfiesConstraint) {
  const auto p = MakeD2();
  // Saturated spec over (X, Y, Z): X plays the role of an always-1 context
  // attribute; the constraint is Y ⟂ Z | X here so every attribute is
  // covered (Section 4.1 assumes saturation).
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  const auto r = QclpClean(p, ci, cost, QclpOptions()).value();
  EXPECT_LT(r.target_cmi, 1e-6);
}

TEST(QclpTest, D2OptimalCostBeatsThePaperExampleRepair) {
  // Example 3.4 exhibits a repair of cost 1/4 (move 1/4 of the mass from
  // (1,1,0) to (1,1,1)). The QCLP path solves exact LPs and does better:
  // moving 1/6 of the mass from (1,0,1) to (1,1,1) reaches an exactly
  // CI-consistent target at cost 1/6 ≈ 0.1667 — cheaper than both the
  // example repair and the 4/21 fixed point the dense-tableau engine used
  // to settle on.
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  const auto r = QclpClean(p, ci, cost, QclpOptions()).value();
  EXPECT_NEAR(r.transport_cost, 1.0 / 6.0, 0.02);
  EXPECT_LE(r.transport_cost, 4.0 / 21.0 + 1e-9);
  EXPECT_LE(r.transport_cost, 0.25 + 1e-9);
  // The *plan's* actual target marginal (not just the projected Q) must be
  // CI-consistent.
  const auto colm = r.plan.TargetMarginal();
  JointDistribution t(p.domain());
  for (size_t j = 0; j < r.plan.col_cells().size(); ++j) {
    t[r.plan.col_cells()[j]] = colm[j];
  }
  t.Normalize();
  EXPECT_LT(prob::ConditionalMutualInformation(t, ci), 1e-9);
}

TEST(QclpTest, PlanRowMarginalsMatchData) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  const auto r = QclpClean(p, ci, cost, QclpOptions()).value();
  const auto src = r.plan.SourceMarginal();
  ASSERT_EQ(src.size(), 3u);
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_NEAR(src[i], p[r.plan.row_cells()[i]], 1e-6);
  }
}

TEST(QclpTest, MarginalIndependenceSaturatedPair) {
  // Two attributes only: X ⟂ Y saturated.
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[d.Encode({0, 0})] = 0.45;
  p[d.Encode({1, 1})] = 0.45;
  p[d.Encode({0, 1})] = 0.05;
  p[d.Encode({1, 0})] = 0.05;
  const CiSpec ci{{0}, {1}, {}};
  ot::EuclideanCost cost(2);
  const auto r = QclpClean(p, ci, cost, QclpOptions()).value();
  EXPECT_LT(r.target_cmi, 1e-6);
  EXPECT_GT(r.transport_cost, 0.0);
}

TEST(QclpTest, RequiresSaturatedSpec) {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  const auto p = JointDistribution::Uniform(d);
  const CiSpec unsaturated{{0}, {1}, {}};
  ot::EuclideanCost cost(3);
  EXPECT_FALSE(QclpClean(p, unsaturated, cost, QclpOptions()).ok());
}

TEST(QclpTest, RejectsUnnormalizedInput) {
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[0] = 3.0;
  const CiSpec ci{{0}, {1}, {}};
  ot::EuclideanCost cost(2);
  EXPECT_FALSE(QclpClean(p, ci, cost, QclpOptions()).ok());
}

TEST(QclpTest, ConsistentInputIsNearZeroCost) {
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  // Independent: P(x)P(y) with p=0.6, q=0.3.
  p[d.Encode({0, 0})] = 0.4 * 0.7;
  p[d.Encode({0, 1})] = 0.4 * 0.3;
  p[d.Encode({1, 0})] = 0.6 * 0.7;
  p[d.Encode({1, 1})] = 0.6 * 0.3;
  const CiSpec ci{{0}, {1}, {}};
  ot::EuclideanCost cost(2);
  const auto r = QclpClean(p, ci, cost, QclpOptions()).value();
  EXPECT_NEAR(r.transport_cost, 0.0, 1e-6);
}

TEST(QclpTest, TracksTableauBytes) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  const auto r = QclpClean(p, ci, cost, QclpOptions()).value();
  // 3 active rows, 8 columns -> 24 vars, 11 constraints.
  EXPECT_GT(r.peak_tableau_bytes, 24u * 8u);
  EXPECT_GT(r.total_lp_pivots, 0u);
}

TEST(QclpTest, RestrictColumnsShrinksPlan) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  QclpOptions opts;
  opts.restrict_columns_to_active = true;
  const auto r = QclpClean(p, ci, cost, opts).value();
  EXPECT_EQ(r.plan.col_cells().size(), 3u);
}

TEST(QclpTest, MultiQclpMatchesSingleQclp) {
  // QclpClean is a thin wrapper over QclpCleanMulti: a singleton saturated
  // spec must take the identical alternation path — same cost, same target,
  // same iteration count. (Referenced by extensions_test's
  // RepairTableMultiValidates, which pins the repair-layer dispatch.)
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  const QclpOptions opts;
  const auto single = QclpClean(p, ci, cost, opts).value();
  const auto multi = QclpCleanMulti(p, {ci}, cost, opts).value();
  EXPECT_EQ(multi.transport_cost, single.transport_cost);
  EXPECT_EQ(multi.target_cmi, single.target_cmi);
  EXPECT_EQ(multi.outer_iterations, single.outer_iterations);
  EXPECT_EQ(multi.converged, single.converged);
  ASSERT_EQ(multi.target.size(), single.target.size());
  for (size_t i = 0; i < multi.target.size(); ++i) {
    EXPECT_EQ(multi.target[i], single.target[i]);
  }
}

TEST(QclpTest, PreCancelledTokenAbortsWithCancelled) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  CancellationToken token;
  token.Cancel();
  QclpOptions opts;
  opts.cancel_token = &token;
  const auto r = QclpClean(p, ci, cost, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(QclpTest, ExpiredDeadlineAbortsWithDeadlineExceeded) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {0}};
  ot::EuclideanCost cost(3);
  QclpOptions opts;
  opts.deadline = Deadline::After(-1.0);
  const auto r = QclpClean(p, ci, cost, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace otclean::core
