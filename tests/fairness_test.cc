#include <gtest/gtest.h>

#include <cmath>

#include "core/repair.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "fairness/cap_maxsat.h"
#include "fairness/maxsat.h"
#include "fairness/metrics.h"

namespace otclean::fairness {
namespace {

/// Biased table: predictions depend on sensitive attribute s within each
/// admissible stratum a.
dataset::Table MakeBiasedTable(size_t n, uint64_t seed,
                               std::vector<double>* scores) {
  std::vector<dataset::Column> cols = {datagen::MakeColumn("s", 2),
                                       datagen::MakeColumn("a", 2),
                                       datagen::MakeColumn("y", 2)};
  dataset::Table t{dataset::Schema(std::move(cols))};
  Rng rng(seed);
  scores->clear();
  for (size_t i = 0; i < n; ++i) {
    const int s = rng.NextBernoulli(0.5) ? 1 : 0;
    const int a = rng.NextBernoulli(0.5) ? 1 : 0;
    const int y = rng.NextBernoulli(0.3 + 0.4 * a) ? 1 : 0;
    EXPECT_TRUE(t.AppendRow({s, a, y}).ok());
    // Biased scorer: protected group (s=1) scored lower.
    scores->push_back(0.3 + 0.4 * a - 0.25 * s + 0.1 * rng.NextDouble());
  }
  return t;
}

TEST(FairnessMetricsTest, BiasedScoresYieldNonzeroRod) {
  std::vector<double> scores;
  const auto t = MakeBiasedTable(2000, 1, &scores);
  FairnessInputs in;
  in.table = &t;
  in.scores = scores;
  in.sensitive_col = 0;
  in.admissible_cols = {1};
  const double rod = LogRod(in).value();
  EXPECT_GT(std::fabs(rod), 0.3);
}

TEST(FairnessMetricsTest, UnbiasedScoresYieldNearZeroRod) {
  std::vector<double> scores;
  const auto t = MakeBiasedTable(4000, 2, &scores);
  // Replace with s-independent scores.
  Rng rng(3);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    scores[r] = 0.3 + 0.4 * t.Value(r, 1) + 0.1 * rng.NextDouble();
  }
  FairnessInputs in;
  in.table = &t;
  in.scores = scores;
  in.sensitive_col = 0;
  in.admissible_cols = {1};
  EXPECT_NEAR(LogRod(in).value(), 0.0, 0.15);
}

TEST(FairnessMetricsTest, DemographicParityGap) {
  std::vector<double> scores;
  const auto t = MakeBiasedTable(3000, 4, &scores);
  FairnessInputs in;
  in.table = &t;
  in.scores = scores;
  in.sensitive_col = 0;
  in.admissible_cols = {1};
  const double dp = DemographicParityGap(in).value();
  EXPECT_GT(dp, 0.1);  // biased scorer
}

TEST(FairnessMetricsTest, EqualityOfOddsGap) {
  std::vector<double> scores;
  const auto t = MakeBiasedTable(3000, 5, &scores);
  FairnessInputs in;
  in.table = &t;
  in.scores = scores;
  in.sensitive_col = 0;
  in.admissible_cols = {1};
  const double eo = EqualityOfOddsGap(in, 2).value();
  EXPECT_GT(eo, 0.05);
}

TEST(FairnessMetricsTest, ValidatesInputs) {
  std::vector<double> scores;
  const auto t = MakeBiasedTable(100, 6, &scores);
  FairnessInputs in;
  in.table = &t;
  in.scores = {0.5};  // wrong size
  in.sensitive_col = 0;
  EXPECT_FALSE(LogRod(in).ok());
  in.scores = scores;
  in.sensitive_col = 9;  // out of range triggers cardinality check crash-free
  // (column 9 doesn't exist; guard is the binary-cardinality check on a
  // valid column index, so use column 1 with card 2 -> ok, and column 2.)
  in.sensitive_col = 1;
  EXPECT_TRUE(LogRod(in).ok());
}

// -------------------------------------------------------------- Capuchin --

/// The Capuchin baselines repair through the core plan-based pipeline.
core::RepairOptions BaselineOptions(core::Solver solver) {
  core::RepairOptions opts;
  opts.solver = solver;
  opts.seed = 99;
  return opts;
}

TEST(CapuchinTest, IcRepairReducesCmi) {
  const auto bundle = datagen::MakeCompas(3000, 7).value();
  const double before = core::TableCmi(bundle.table, bundle.constraint).value();
  const auto repaired =
      core::RepairTable(bundle.table, bundle.constraint,
                        BaselineOptions(core::Solver::kCapuchinIC))
          .value()
          .repaired;
  const double after = core::TableCmi(repaired, bundle.constraint).value();
  EXPECT_GT(before, 0.01);
  EXPECT_LT(after, before * 0.5);
  EXPECT_EQ(repaired.num_rows(), bundle.table.num_rows());
}

TEST(CapuchinTest, MfRepairReducesCmi) {
  const auto bundle = datagen::MakeCompas(3000, 8).value();
  const double before = core::TableCmi(bundle.table, bundle.constraint).value();
  const auto repaired =
      core::RepairTable(bundle.table, bundle.constraint,
                        BaselineOptions(core::Solver::kCapuchinMF))
          .value()
          .repaired;
  const double after = core::TableCmi(repaired, bundle.constraint).value();
  EXPECT_LT(after, before * 0.5);
}

TEST(CapuchinTest, PreservesSchemaAndLabel) {
  const auto bundle = datagen::MakeCompas(500, 9).value();
  const auto repaired =
      core::RepairTable(bundle.table, bundle.constraint,
                        BaselineOptions(core::Solver::kCapuchinIC))
          .value()
          .repaired;
  EXPECT_EQ(repaired.num_columns(), bundle.table.num_columns());
  // Label column untouched (not part of the constraint).
  const auto label = repaired.schema().ColumnIndex(bundle.label_col).value();
  for (size_t r = 0; r < repaired.num_rows(); ++r) {
    EXPECT_EQ(repaired.Value(r, label), bundle.table.Value(r, label));
  }
}

// ---------------------------------------------------------------- MaxSAT --

TEST(MaxSatTest, SatisfiableHardClauses) {
  MaxSatProblem p;
  p.num_vars = 2;
  p.hard.push_back({{1, 2}, 1.0});    // x1 or x2
  p.hard.push_back({{-1, -2}, 1.0});  // not both
  p.soft.push_back({{1}, 5.0});       // prefer x1
  const auto r = SolveMaxSat(p).value();
  EXPECT_TRUE(r.hard_satisfied);
  EXPECT_TRUE(r.assignment[1]);
  EXPECT_FALSE(r.assignment[2]);
  EXPECT_NEAR(r.satisfied_soft_weight, 5.0, 1e-9);
}

TEST(MaxSatTest, WeighsSoftClauses) {
  MaxSatProblem p;
  p.num_vars = 1;
  p.soft.push_back({{1}, 1.0});
  p.soft.push_back({{-1}, 10.0});
  const auto r = SolveMaxSat(p).value();
  EXPECT_FALSE(r.assignment[1]);
  EXPECT_NEAR(r.satisfied_soft_weight, 10.0, 1e-9);
}

TEST(MaxSatTest, RejectsMalformedInput) {
  MaxSatProblem p;
  p.num_vars = 0;
  EXPECT_FALSE(SolveMaxSat(p).ok());
  p.num_vars = 1;
  p.soft.push_back({{}, 1.0});
  EXPECT_FALSE(SolveMaxSat(p).ok());
  p.soft.clear();
  p.soft.push_back({{5}, 1.0});  // var out of range
  EXPECT_FALSE(SolveMaxSat(p).ok());
}

TEST(MaxSatTest, InitialAssignmentIsUsed) {
  // A crafted instance where the initial assignment is already optimal.
  MaxSatProblem p;
  p.num_vars = 3;
  p.hard.push_back({{-1, 2}, 1.0});
  p.soft.push_back({{1}, 2.0});
  p.soft.push_back({{2}, 2.0});
  p.soft.push_back({{-3}, 1.0});
  std::vector<bool> init = {false, true, true, false};
  const auto r = SolveMaxSat(p, MaxSatOptions(), init).value();
  EXPECT_TRUE(r.hard_satisfied);
  EXPECT_NEAR(r.satisfied_soft_weight, 5.0, 1e-9);
}

TEST(CapMaxSatTest, RepairsMvdViolation) {
  // Saturated constraint over a small violating table.
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 300;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.violation = 0.8;
  gen.seed = 12;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint ci({"x"}, {"y"}, {"z0"});

  const auto report = CapMaxSatRepair(table, ci).value();
  EXPECT_TRUE(report.hard_satisfied);
  // The repaired relation's support is a per-z cross product, i.e. the MVD
  // holds *structurally* (the distributional CMI may stay nonzero since
  // MaxSAT only reasons about presence/absence).
  const auto cols = ci.ResolveColumns(table.schema()).value();
  const auto p = report.repaired.Empirical(cols);
  const auto& dom = p.domain();
  for (int z = 0; z < 2; ++z) {
    // For each z: if (x,z) present and (y,z) present then (x,y,z) present.
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) {
        double px = 0.0, py = 0.0;
        for (int yy = 0; yy < 2; ++yy) px += p[dom.Encode({x, yy, z})];
        for (int xx = 0; xx < 2; ++xx) py += p[dom.Encode({xx, y, z})];
        if (px > 0.0 && py > 0.0) {
          EXPECT_GT(p[dom.Encode({x, y, z})], 0.0);
        }
      }
    }
  }
}

TEST(CapMaxSatTest, ConsistentInputNeedsNoEdits) {
  // A table whose support is already a cross product per z.
  std::vector<dataset::Column> cols = {datagen::MakeColumn("x", 2),
                                       datagen::MakeColumn("y", 2),
                                       datagen::MakeColumn("z", 2)};
  dataset::Table t{dataset::Schema(std::move(cols))};
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        ASSERT_TRUE(t.AppendRow({x, y, z}).ok());
      }
    }
  }
  const core::CiConstraint ci({"x"}, {"y"}, {"z"});
  const auto report = CapMaxSatRepair(t, ci).value();
  EXPECT_EQ(report.deleted_rows, 0u);
  EXPECT_EQ(report.inserted_rows, 0u);
  EXPECT_EQ(report.repaired.num_rows(), t.num_rows());
}

}  // namespace
}  // namespace otclean::fairness
