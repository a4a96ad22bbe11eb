#include <gtest/gtest.h>

#include <cmath>

#include "core/repair.h"
#include "datagen/synthetic.h"
#include "ot/cost.h"
#include "ot/sinkhorn.h"
#include "prob/independence.h"

namespace otclean {
namespace {

// ------------------------------------------------- Log-domain Sinkhorn ---

linalg::Matrix SimpleCost() {
  linalg::Matrix c(2, 2);
  c(0, 1) = 1.0;
  c(1, 0) = 1.0;
  return c;
}

TEST(LogSinkhornTest, AgreesWithLinearDomain) {
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  ot::SinkhornOptions lin;
  lin.epsilon = 0.05;
  ot::SinkhornOptions log = lin;
  log.log_domain = true;
  const auto a = ot::RunSinkhorn(SimpleCost(), p, q, lin).value();
  const auto b = ot::RunSinkhorn(SimpleCost(), p, q, log).value();
  EXPECT_TRUE(a.plan.ApproxEquals(b.plan, 1e-6));
  EXPECT_NEAR(a.transport_cost, b.transport_cost, 1e-6);
}

TEST(LogSinkhornTest, RelaxedAgreesWithLinearDomain) {
  linalg::Vector p(std::vector<double>{0.8, 0.2});
  linalg::Vector q(std::vector<double>{0.3, 0.7});
  ot::SinkhornOptions lin;
  lin.epsilon = 0.1;
  lin.relaxed = true;
  lin.lambda = 20.0;
  ot::SinkhornOptions log = lin;
  log.log_domain = true;
  const auto a = ot::RunSinkhorn(SimpleCost(), p, q, lin).value();
  const auto b = ot::RunSinkhorn(SimpleCost(), p, q, log).value();
  EXPECT_TRUE(a.plan.ApproxEquals(b.plan, 1e-6));
}

TEST(LogSinkhornTest, StableAtTinyEpsilon) {
  // Linear-domain kernels underflow at eps = 1e-3 with costs ~1; the
  // log-domain path must still produce a sharp, mass-preserving plan.
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  ot::SinkhornOptions opts;
  opts.epsilon = 1e-3;
  opts.log_domain = true;
  opts.max_iterations = 5000;
  const auto r = ot::RunSinkhorn(SimpleCost(), p, q, opts).value();
  EXPECT_NEAR(r.plan.Sum(), 1.0, 1e-6);
  // Exact OT cost is 0.3; at eps = 1e-3 the entropic bias is negligible.
  EXPECT_NEAR(r.transport_cost, 0.3, 1e-3);
}

TEST(LogSinkhornTest, StableUnderHugePenaltyCosts) {
  // A frozen-attribute style cost with a 1e6 penalty entry.
  linalg::Matrix cost(2, 2);
  cost(0, 1) = 1e6;
  cost(1, 0) = 1.0;
  linalg::Vector p(std::vector<double>{0.6, 0.4});
  linalg::Vector q(std::vector<double>{0.5, 0.5});
  ot::SinkhornOptions opts;
  opts.epsilon = 0.05;
  opts.log_domain = true;
  opts.relaxed = true;
  opts.lambda = 50.0;
  const auto r = ot::RunSinkhorn(cost, p, q, opts).value();
  EXPECT_GT(r.plan.Sum(), 0.5);
  EXPECT_NEAR(r.plan(0, 1), 0.0, 1e-12);  // forbidden move stays empty
}

TEST(LogSinkhornTest, HandlesZeroMarginalEntries) {
  linalg::Vector p(std::vector<double>{1.0, 0.0});
  linalg::Vector q(std::vector<double>{0.5, 0.5});
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.log_domain = true;
  const auto r = ot::RunSinkhorn(SimpleCost(), p, q, opts).value();
  EXPECT_NEAR(r.plan(1, 0) + r.plan(1, 1), 0.0, 1e-12);
}

// ------------------------------------------------- Multi-CI projection ---

TEST(MultiCiTest, SingleConstraintMatchesCiProjection) {
  const prob::Domain d = prob::Domain::FromCardinalities({2, 2, 2});
  prob::JointDistribution p(d);
  Rng rng(3);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + rng.NextDouble();
  p.Normalize();
  const prob::CiSpec ci{{0}, {1}, {2}};
  const auto a = prob::CiProjection(p, ci);
  const auto b = prob::MultiCiProjection(p, {ci});
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9));
}

TEST(MultiCiTest, TwoConstraintsBothSatisfied) {
  // Over (A, B, C): enforce A ⟂ B | C and A ⟂ C.
  const prob::Domain d = prob::Domain::FromCardinalities({2, 2, 2});
  prob::JointDistribution p(d);
  Rng rng(4);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + rng.NextDouble();
  p.Normalize();
  const prob::CiSpec ci1{{0}, {1}, {2}};
  const prob::CiSpec ci2{{0}, {2}, {}};
  const auto q = prob::MultiCiProjection(p, {ci1, ci2});
  EXPECT_LT(prob::ConditionalMutualInformation(q, ci1), 1e-7);
  EXPECT_LT(prob::ConditionalMutualInformation(q, ci2), 1e-7);
  EXPECT_NEAR(q.Mass(), 1.0, 1e-9);
}

TEST(MultiCiTest, MaxCmiReportsLargest) {
  const prob::Domain d = prob::Domain::FromCardinalities({2, 2, 2});
  prob::JointDistribution p(d);
  p[d.Encode({0, 0, 0})] = 0.5;
  p[d.Encode({1, 1, 1})] = 0.5;
  const prob::CiSpec ci1{{0}, {1}, {2}};  // satisfied (deterministic given z)
  const prob::CiSpec ci2{{0}, {1}, {}};   // violated badly
  const double mx = prob::MaxCmi(p, {ci1, ci2});
  EXPECT_NEAR(mx, prob::ConditionalMutualInformation(p, ci2), 1e-12);
  EXPECT_DOUBLE_EQ(prob::MaxCmi(p, {}), 0.0);
}

// ------------------------------------------- Multi-constraint cleaning ---

TEST(MultiCleanTest, FastOtCleanMultiEnforcesBoth) {
  const prob::Domain d = prob::Domain::FromCardinalities({2, 2, 2});
  prob::JointDistribution p(d);
  Rng rng(5);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + rng.NextDouble();
  p.Normalize();
  const prob::CiSpec ci1{{0}, {1}, {2}};
  const prob::CiSpec ci2{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  core::FastOtCleanOptions opts;
  opts.epsilon = 0.1;
  opts.max_outer_iterations = 200;
  Rng solver_rng(6);
  const auto r =
      core::FastOtCleanMulti(p, {ci1, ci2}, cost, opts, solver_rng).value();
  EXPECT_LT(r.target_cmi, 1e-6);
}

TEST(MultiCleanTest, RejectsEmptyConstraintSet) {
  const prob::Domain d = prob::Domain::FromCardinalities({2, 2});
  const auto p = prob::JointDistribution::Uniform(d);
  ot::EuclideanCost cost(2);
  core::FastOtCleanOptions opts;
  Rng rng(7);
  EXPECT_FALSE(core::FastOtCleanMulti(p, {}, cost, opts, rng).ok());
}

TEST(MultiCleanTest, RepairTableMultiReducesBothCmis) {
  // Two genuinely violated, overlapping constraints: x ⟂ y | (z0,z1) (the
  // planted slice-level dependence) and x ⟂ w0 (the planted marginal
  // correlation with the extra attribute).
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 2000;
  gen.num_z_attrs = 2;
  gen.z_card = 2;
  gen.num_w_attrs = 1;
  gen.w_card = 2;
  gen.violation = 0.7;
  gen.seed = 8;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint c1({"x"}, {"y"}, {"z0", "z1"});
  const core::CiConstraint c2({"x"}, {"w0"});
  ASSERT_GT(core::TableCmi(table, c1).value(), 0.05);
  ASSERT_GT(core::TableCmi(table, c2).value(), 0.005);

  const auto report = core::RepairTableMulti(table, {c1, c2}).value();
  EXPECT_LT(report.target_cmi, 1e-6);
  EXPECT_LT(report.final_cmi, report.initial_cmi);
  EXPECT_EQ(report.repaired.num_rows(), table.num_rows());
  // Both constraints individually improved.
  EXPECT_LT(core::TableCmi(report.repaired, c1).value(),
            core::TableCmi(table, c1).value() * 0.5);
  EXPECT_LT(core::TableCmi(report.repaired, c2).value(),
            core::TableCmi(table, c2).value());
}

/// Every field of two repair reports, the repaired tables included, is
/// bit-identical.
void ExpectSameReport(const core::RepairReport& a,
                      const core::RepairReport& b) {
  EXPECT_TRUE(a.repaired.SameContents(b.repaired));
  EXPECT_EQ(a.initial_cmi, b.initial_cmi);
  EXPECT_EQ(a.final_cmi, b.final_cmi);
  EXPECT_EQ(a.target_cmi, b.target_cmi);
  EXPECT_EQ(a.transport_cost, b.transport_cost);
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  EXPECT_EQ(a.total_sinkhorn_iterations, b.total_sinkhorn_iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.plan_sparse, b.plan_sparse);
  EXPECT_EQ(a.plan_nnz, b.plan_nnz);
  EXPECT_EQ(a.plan_memory_bytes, b.plan_memory_bytes);
  EXPECT_EQ(a.kernel_nnz, b.kernel_nnz);
  EXPECT_STREQ(a.simd_isa, b.simd_isa);
  EXPECT_STREQ(a.sinkhorn_domain, b.sinkhorn_domain);
  EXPECT_EQ(a.cache_kernel_hits, b.cache_kernel_hits);
  EXPECT_EQ(a.cache_kernel_misses, b.cache_kernel_misses);
  EXPECT_STREQ(a.precision, b.precision);
  EXPECT_STREQ(a.termination, b.termination);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.recovery, b.recovery);
}

TEST(MultiCleanTest, RepairTableMultiValidates) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 100;
  const auto table = datagen::MakeScalingDataset(gen).value();
  EXPECT_FALSE(core::RepairTableMulti(table, {}).ok());
  const core::CiConstraint c({"x"}, {"y"}, {"z0"});
  const core::CiConstraint c2({"x"}, {"z0"});

  // Unsupported multi-constraint combinations are loud InvalidArgument
  // errors, not a silent fall-through to a single-constraint solve. The
  // fairness baselines are single-constraint by construction (kQclp is
  // accepted since the shared-engine port — see MultiQclpMatchesSingleQclp
  // in qclp_test.cc). With one constraint both run, as RepairTable.
  core::RepairOptions cap_opts;
  cap_opts.solver = core::Solver::kCapuchinIC;
  const auto cap = core::RepairTableMulti(table, {c, c2}, cap_opts);
  EXPECT_EQ(cap.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cap.status().message().find("single-constraint"),
            std::string::npos);
  ExpectSameReport(core::RepairTableMulti(table, {c}, cap_opts).value(),
                   core::RepairTable(table, c, cap_opts).value());

  core::RepairOptions naive_opts;
  naive_opts.use_saturation = false;
  const auto naive = core::RepairTableMulti(table, {c, c2}, naive_opts);
  EXPECT_EQ(naive.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(naive.status().message().find("use_saturation"),
            std::string::npos);
  ExpectSameReport(core::RepairTableMulti(table, {c}, naive_opts).value(),
                   core::RepairTable(table, c, naive_opts).value());
}

TEST(MultiCleanTest, SingleConstraintMultiMatchesSingleApi) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 800;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.violation = 0.6;
  gen.seed = 9;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint c({"x"}, {"y"}, {"z0"});
  core::RepairOptions opts;
  opts.seed = 77;
  const auto single = core::RepairTable(table, c, opts).value();
  const auto multi = core::RepairTableMulti(table, {c}, opts).value();
  ExpectSameReport(single, multi);
}

TEST(MultiCleanTest, MultiRepairerFitApplyReproducesRepairTableMulti) {
  // RepairTableMulti is a fitted OtCleanRepairer applied with the one
  // apply seed, whatever the number of constraints.
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 600;
  gen.num_z_attrs = 2;
  gen.z_card = 2;
  gen.num_w_attrs = 1;
  gen.w_card = 2;
  gen.violation = 0.7;
  gen.seed = 10;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const std::vector<core::CiConstraint> constraints = {
      core::CiConstraint({"x"}, {"y"}, {"z0", "z1"}),
      core::CiConstraint({"x"}, {"w0"})};
  core::RepairOptions opts;
  opts.seed = 78;
  opts.fast.max_outer_iterations = 20;
  const auto report = core::RepairTableMulti(table, constraints, opts).value();

  core::OtCleanRepairer repairer(constraints, opts);
  ASSERT_TRUE(repairer.Fit(table).ok());
  EXPECT_EQ(repairer.CleanedDomain().num_attrs(), 5u);  // x, y, z0, z1, w0
  Rng rng(opts.seed ^ 0xabcdef12345ull);
  const auto repaired = repairer.Apply(table, rng).value();
  EXPECT_TRUE(repaired.SameContents(report.repaired));
  EXPECT_EQ(repairer.fit_report().initial_cmi, report.initial_cmi);
  EXPECT_EQ(repairer.fit_report().target_cmi, report.target_cmi);
  EXPECT_EQ(repairer.fit_report().transport_cost, report.transport_cost);
  EXPECT_EQ(repairer.fit_report().total_sinkhorn_iterations,
            report.total_sinkhorn_iterations);
}

}  // namespace
}  // namespace otclean
