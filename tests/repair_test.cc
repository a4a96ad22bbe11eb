#include <gtest/gtest.h>

#include "core/repair.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"

namespace otclean::core {
namespace {

/// Small table over binary x, y and one z attribute with a strong planted
/// violation of x ⟂ y | z.
dataset::Table MakeViolatingTable(size_t n = 600, uint64_t seed = 21) {
  datagen::ScalingDatasetOptions opts;
  opts.num_rows = n;
  opts.num_z_attrs = 1;
  opts.z_card = 2;
  opts.violation = 0.7;
  opts.seed = seed;
  return datagen::MakeScalingDataset(opts).value();
}

CiConstraint XyGivenZ() { return CiConstraint({"x"}, {"y"}, {"z0"}); }

TEST(RepairTest, TableCmiPositiveOnViolation) {
  const auto table = MakeViolatingTable();
  EXPECT_GT(TableCmi(table, XyGivenZ()).value(), 0.05);
}

TEST(RepairTest, RepairReducesCmi) {
  const auto table = MakeViolatingTable();
  RepairOptions opts;
  opts.fast.epsilon = 0.05;
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_GT(report.initial_cmi, 0.05);
  EXPECT_LT(report.target_cmi, 1e-6);
  // Sampling noise keeps the empirical CMI above zero but far below input.
  EXPECT_LT(report.final_cmi, report.initial_cmi * 0.5);
  EXPECT_EQ(report.repaired.num_rows(), table.num_rows());
}

TEST(RepairTest, RepairedTableHasSameSchema) {
  const auto table = MakeViolatingTable(300);
  const auto report = RepairTable(table, XyGivenZ()).value();
  EXPECT_EQ(report.repaired.num_columns(), table.num_columns());
  EXPECT_EQ(report.repaired.schema().column(0).name, "x");
}

TEST(RepairTest, FitThenApplySupportsStreaming) {
  const auto train = MakeViolatingTable(500, 31);
  const auto stream = MakeViolatingTable(200, 32);
  OtCleanRepairer repairer(XyGivenZ());
  ASSERT_TRUE(repairer.Fit(train).ok());
  EXPECT_TRUE(repairer.fitted());
  Rng rng(5);
  const auto repaired = repairer.Apply(stream, rng).value();
  EXPECT_EQ(repaired.num_rows(), stream.num_rows());
  const double cmi = TableCmi(repaired, XyGivenZ()).value();
  const double dirty_cmi = TableCmi(stream, XyGivenZ()).value();
  EXPECT_LT(cmi, dirty_cmi);
}

TEST(RepairTest, ApplyBeforeFitFails) {
  OtCleanRepairer repairer(XyGivenZ());
  Rng rng(1);
  EXPECT_EQ(repairer.Apply(MakeViolatingTable(50), rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RepairTest, RepairRowPassesThroughMissing) {
  const auto table = MakeViolatingTable(300);
  OtCleanRepairer repairer(XyGivenZ());
  ASSERT_TRUE(repairer.Fit(table).ok());
  Rng rng(2);
  std::vector<int> row = table.Row(0);
  row[0] = dataset::kMissing;
  EXPECT_EQ(repairer.RepairRow(row, rng), row);
}

TEST(RepairTest, UnsaturatedSaturationKeepsOtherColumnsFixed) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 500;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.num_w_attrs = 2;
  gen.violation = 0.7;
  gen.seed = 41;
  const auto table = datagen::MakeScalingDataset(gen).value();

  RepairOptions opts;
  opts.use_saturation = true;
  OtCleanRepairer repairer(XyGivenZ(), opts);
  ASSERT_TRUE(repairer.Fit(table).ok());
  Rng rng(3);
  const auto repaired = repairer.Apply(table, rng).value();
  // W columns (3, 4 are w0, w1) must be untouched.
  const auto w0 = table.schema().ColumnIndex("w0").value();
  const auto w1 = table.schema().ColumnIndex("w1").value();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(repaired.Value(r, w0), table.Value(r, w0));
    EXPECT_EQ(repaired.Value(r, w1), table.Value(r, w1));
  }
  EXPECT_LT(TableCmi(repaired, XyGivenZ()).value(),
            TableCmi(table, XyGivenZ()).value());
}

TEST(RepairTest, NaiveUnsaturatedAlsoRepairs) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 400;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.num_w_attrs = 1;
  gen.w_card = 2;
  gen.violation = 0.7;
  gen.seed = 43;
  const auto table = datagen::MakeScalingDataset(gen).value();

  RepairOptions opts;
  opts.use_saturation = false;  // clean the full joint
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_LT(report.final_cmi, report.initial_cmi);
}

TEST(RepairTest, MapRepairIsDeterministic) {
  const auto table = MakeViolatingTable(300, 51);
  RepairOptions opts;
  opts.sample_repair = false;
  OtCleanRepairer repairer(XyGivenZ(), opts);
  ASSERT_TRUE(repairer.Fit(table).ok());
  Rng r1(1), r2(999);
  const auto a = repairer.Apply(table, r1).value();
  const auto b = repairer.Apply(table, r2).value();
  for (size_t r = 0; r < a.num_rows(); ++r) EXPECT_EQ(a.Row(r), b.Row(r));
}

TEST(RepairTest, QclpSolverPathWorksOnSmallDomain) {
  // x ⟂ y | z0 is saturated for a 3-column table.
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 200;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.violation = 0.7;
  gen.seed = 61;
  const auto table = datagen::MakeScalingDataset(gen).value();
  RepairOptions opts;
  opts.solver = Solver::kQclp;
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_LT(report.target_cmi, 1e-6);
  EXPECT_LT(report.final_cmi, report.initial_cmi);
}

TEST(RepairTest, CustomCostIsRespected) {
  const auto table = MakeViolatingTable(400, 71);
  // A cost that forbids changing x (attribute 0 of the U-domain).
  ot::FairnessCost cost({0}, 3, 1e6);
  RepairOptions opts;
  OtCleanRepairer repairer(XyGivenZ(), opts);
  ASSERT_TRUE(repairer.Fit(table, &cost).ok());
  Rng rng(4);
  const auto repaired = repairer.Apply(table, rng).value();
  const auto x_col = table.schema().ColumnIndex("x").value();
  size_t x_changes = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (repaired.Value(r, x_col) != table.Value(r, x_col)) ++x_changes;
  }
  // Changing x is prohibitively expensive, so (almost) no x updates.
  EXPECT_LT(x_changes, table.num_rows() / 50);
}

TEST(RepairTest, TerminationReportsTheIterationCap) {
  const auto table = MakeViolatingTable(300);
  // Tolerances this problem reaches well inside the default budget.
  RepairOptions opts;
  opts.fast.epsilon = 0.2;
  opts.fast.lambda = 10.0;
  opts.fast.sinkhorn_tolerance = 1e-7;
  opts.fast.outer_tolerance = 1e-3;
  const auto converged = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_TRUE(converged.converged);
  EXPECT_STREQ(converged.termination, "ok");

  // One outer step cannot meet the outer tolerance: the report must say
  // the budget ran out rather than "ok".
  opts.fast.max_outer_iterations = 1;
  const auto capped = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_FALSE(capped.converged);
  EXPECT_STREQ(capped.termination, "iteration-cap");
}

TEST(RepairTest, DefaultRepairConvergesOnPaperTables) {
  // Algorithm 2 as warm-started 5-sweep steps converges on the paper-scale
  // cleaning tables, in either iteration domain, to the answer of near
  // exact inner solves (references: 20 sweeps per step, outer tolerance
  // 1e-12). The plan's rows and columns are both the active cells, so the
  // dense kernel and plan hold active² entries; the step and iteration
  // counts are those of the full-domain columns this replaced.
  struct Case {
    datagen::DatasetBundle data;
    double reference_cost;
    double max_final_cmi;
    size_t active_cells;
    size_t steps;
    size_t iterations;
  };
  const Case cases[] = {
      {datagen::MakeBoston(2000, 903).value(), 0.0255044497, 0.000952, 101,
       988, 4758},
      {datagen::MakeCar(1250, 901).value(), 0.0574531454, 0.00250, 210,
       1696, 8476},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.data.name);
    RepairOptions opts;
    const auto linear =
        RepairTable(c.data.table, c.data.constraint, opts).value();
    EXPECT_TRUE(linear.converged);
    EXPECT_STREQ(linear.termination, "ok");
    EXPECT_LE(linear.total_sinkhorn_iterations, 20000u);
    EXPECT_EQ(linear.kernel_nnz, c.active_cells * c.active_cells);
    EXPECT_EQ(linear.plan_nnz, linear.kernel_nnz);
    EXPECT_EQ(linear.outer_iterations, c.steps);
    EXPECT_EQ(linear.total_sinkhorn_iterations, c.iterations);
    EXPECT_NEAR(linear.transport_cost, c.reference_cost,
                1e-5 * c.reference_cost);
    EXPECT_LE(linear.final_cmi, c.max_final_cmi);

    opts.fast.log_domain = true;
    const auto log =
        RepairTable(c.data.table, c.data.constraint, opts).value();
    EXPECT_TRUE(log.converged);
    EXPECT_NEAR(static_cast<double>(log.total_sinkhorn_iterations),
                static_cast<double>(linear.total_sinkhorn_iterations),
                0.1 * static_cast<double>(linear.total_sinkhorn_iterations));
  }
}

TEST(RepairTest, UnknownConstraintColumnFails) {
  const auto table = MakeViolatingTable(100);
  const CiConstraint bad({"nope"}, {"y"}, {"z0"});
  EXPECT_FALSE(RepairTable(table, bad).ok());
}

}  // namespace
}  // namespace otclean::core
