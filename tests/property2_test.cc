#include <gtest/gtest.h>

#include <cmath>

#include "core/repair.h"
#include "dataset/csv.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "nmf/kl_nmf.h"
#include "ot/cost.h"

namespace otclean {
namespace {

// ----------------------------------------- Cost functions: metric axioms --

struct CostCase {
  std::string name;
  std::shared_ptr<ot::CostFunction> cost;
};

class CostAxioms : public ::testing::TestWithParam<CostCase> {};

TEST_P(CostAxioms, NonNegativeAndIdentityZero) {
  const auto& cost = *GetParam().cost;
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> a(3), b(3);
    for (int i = 0; i < 3; ++i) {
      a[i] = static_cast<int>(rng.NextUint64Below(4));
      b[i] = static_cast<int>(rng.NextUint64Below(4));
    }
    EXPECT_GE(cost.Cost(a, b), 0.0);
    EXPECT_NEAR(cost.Cost(a, a), 0.0, 1e-9);
  }
}

TEST_P(CostAxioms, Symmetric) {
  const auto& cost = *GetParam().cost;
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> a(3), b(3);
    for (int i = 0; i < 3; ++i) {
      a[i] = static_cast<int>(rng.NextUint64Below(4));
      b[i] = static_cast<int>(rng.NextUint64Below(4));
    }
    EXPECT_NEAR(cost.Cost(a, b), cost.Cost(b, a), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Costs, CostAxioms,
    ::testing::Values(
        CostCase{"euclidean", std::make_shared<ot::EuclideanCost>(3)},
        CostCase{"hamming", std::make_shared<ot::HammingCost>()},
        CostCase{"cosine", std::make_shared<ot::CosineCost>()},
        CostCase{"weighted", std::make_shared<ot::WeightedEuclideanCost>(
                                 std::vector<double>{1.0, 2.0, 0.5})},
        CostCase{"fairness", std::make_shared<ot::FairnessCost>(
                                 std::vector<size_t>{0}, 3)}),
    [](const ::testing::TestParamInfo<CostCase>& param_info) {
      return param_info.param.name;
    });

TEST(CostAxiomsExtra, EuclideanTriangleInequality) {
  ot::EuclideanCost cost(3);
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> a(3), b(3), c(3);
    for (int i = 0; i < 3; ++i) {
      a[i] = static_cast<int>(rng.NextUint64Below(5));
      b[i] = static_cast<int>(rng.NextUint64Below(5));
      c[i] = static_cast<int>(rng.NextUint64Below(5));
    }
    EXPECT_LE(cost.Cost(a, c), cost.Cost(a, b) + cost.Cost(b, c) + 1e-9);
  }
}

// --------------------------------------------------- CSV round-trip sweep --

class CsvRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTrip, RandomTableSurvives) {
  Rng rng(GetParam());
  const size_t ncols = 1 + rng.NextUint64Below(5);
  std::vector<dataset::Column> cols;
  for (size_t c = 0; c < ncols; ++c) {
    cols.push_back(datagen::MakeColumn("col" + std::to_string(c),
                                       1 + rng.NextUint64Below(6)));
  }
  dataset::Table t{dataset::Schema(cols)};
  const size_t nrows = 1 + rng.NextUint64Below(50);
  for (size_t r = 0; r < nrows; ++r) {
    std::vector<int> row(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      row[c] = rng.NextBernoulli(0.1)
                   ? dataset::kMissing
                   : static_cast<int>(
                         rng.NextUint64Below(cols[c].cardinality()));
    }
    ASSERT_TRUE(t.AppendRow(row).ok());
  }

  const auto back = dataset::ParseCsv(dataset::ToCsvString(t)).value();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_EQ(back.num_columns(), t.num_columns());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      EXPECT_EQ(back.Label(r, c), t.Label(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// ------------------------------------------------- Repair invariant sweep --

struct RepairCase {
  double violation;
  size_t z_card;
  uint64_t seed;
};

class RepairInvariants : public ::testing::TestWithParam<RepairCase> {};

TEST_P(RepairInvariants, SchemaRowsPreservedAndCmiNotWorse) {
  const auto& param = GetParam();
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 800;
  gen.num_z_attrs = 1;
  gen.z_card = param.z_card;
  gen.violation = param.violation;
  gen.seed = param.seed;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint ci({"x"}, {"y"}, {"z0"});

  core::RepairOptions opts;
  opts.fast.max_outer_iterations = 60;
  const auto report = core::RepairTable(table, ci, opts).value();
  EXPECT_EQ(report.repaired.num_rows(), table.num_rows());
  EXPECT_EQ(report.repaired.num_columns(), table.num_columns());
  EXPECT_LT(report.target_cmi, 1e-6);
  // Sampling noise allowance: the repaired CMI may not be exactly 0 but
  // must not exceed the input CMI by more than noise.
  EXPECT_LT(report.final_cmi, report.initial_cmi + 0.02);
  // No missing values introduced.
  EXPECT_FALSE(report.repaired.HasMissing());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RepairInvariants,
    ::testing::Values(RepairCase{0.0, 2, 1}, RepairCase{0.3, 2, 2},
                      RepairCase{0.7, 2, 3}, RepairCase{0.5, 3, 4},
                      RepairCase{0.9, 4, 5}));

// -------------------------------------------- Capuchin invariants sweep ---

class CapuchinInvariants : public ::testing::TestWithParam<core::Solver> {};

TEST_P(CapuchinInvariants, KeepsXAndZColumnsIntact) {
  const auto bundle = datagen::MakeCompas(1500, 11).value();
  core::RepairOptions opts;
  opts.solver = GetParam();
  opts.seed = 99;
  const auto repaired =
      core::RepairTable(bundle.table, bundle.constraint, opts)
          .value()
          .repaired;
  const auto& schema = bundle.table.schema();
  // X (sensitive) and Z (admissible) untouched per row.
  std::vector<size_t> fixed_cols;
  fixed_cols.push_back(schema.ColumnIndex(bundle.sensitive_col).value());
  for (const auto& name : bundle.admissible_cols) {
    fixed_cols.push_back(schema.ColumnIndex(name).value());
  }
  for (size_t r = 0; r < bundle.table.num_rows(); ++r) {
    for (size_t c : fixed_cols) {
      EXPECT_EQ(repaired.Value(r, c), bundle.table.Value(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, CapuchinInvariants,
    ::testing::Values(core::Solver::kCapuchinIC, core::Solver::kCapuchinMF));

// ------------------------------------------------- KL-NMF rank-one sweep --

class KlNmfMarginals : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KlNmfMarginals, ClosedFormPreservesMarginals) {
  Rng rng(GetParam());
  const size_t m = 2 + rng.NextUint64Below(5);
  const size_t n = 2 + rng.NextUint64Below(5);
  linalg::Matrix a(m, n);
  for (double& v : a.data()) v = rng.NextDouble();
  const auto r = nmf::KlNmfRank1(a);
  const auto wh = linalg::Matrix::OuterProduct(r.w.Col(0), r.h.Row(0));
  EXPECT_TRUE(wh.RowSums().ApproxEquals(a.RowSums(), 1e-10));
  EXPECT_TRUE(wh.ColSums().ApproxEquals(a.ColSums(), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlNmfMarginals,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace otclean
