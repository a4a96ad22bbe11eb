#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cleaning/imputer.h"
#include "cleaning/missingness.h"
#include "cleaning/noise.h"
#include "core/repair.h"
#include "datagen/datasets.h"
#include "fairness/metrics.h"
#include "metric/mlkr.h"
#include "ml/cross_validation.h"
#include "ml/logistic_regression.h"
#include "ot/cost.h"

namespace otclean {
namespace {

/// End-to-end fairness pipeline (the Fig. 4 flow, small scale): cleaning
/// the training data with OTClean should reduce |log ROD| without
/// destroying AUC.
TEST(IntegrationTest, FairnessPipelineReducesRod) {
  const auto bundle = datagen::MakeCompas(2500, 900).value();
  const auto& t = bundle.table;
  const size_t label = t.schema().ColumnIndex(bundle.label_col).value();
  const size_t sensitive =
      t.schema().ColumnIndex(bundle.sensitive_col).value();
  std::vector<size_t> admissible;
  for (const auto& name : bundle.admissible_cols) {
    admissible.push_back(t.schema().ColumnIndex(name).value());
  }
  std::vector<size_t> features;
  for (const auto& name : bundle.admissible_cols) {
    features.push_back(t.schema().ColumnIndex(name).value());
  }
  for (const auto& name : bundle.inadmissible_cols) {
    features.push_back(t.schema().ColumnIndex(name).value());
  }

  const auto factory = [] { return std::make_unique<ml::LogisticRegression>(); };
  ml::CrossValidationOptions cv_opts;
  cv_opts.num_folds = 3;

  // Baseline: no repair.
  const auto cv_dirty =
      ml::CrossValidate(t, label, features, factory, cv_opts).value();

  // OTClean repair of each training fold.
  core::RepairOptions repair_opts;
  repair_opts.fast.epsilon = 0.08;
  const auto transform =
      [&](const dataset::Table& train) -> Result<dataset::Table> {
    OTCLEAN_ASSIGN_OR_RETURN(
        core::RepairReport report,
        core::RepairTable(train, bundle.constraint, repair_opts));
    return report.repaired;
  };
  const auto cv_clean =
      ml::CrossValidate(t, label, features, factory, cv_opts, transform)
          .value();

  fairness::FairnessInputs in_dirty;
  in_dirty.table = &t;
  in_dirty.scores = cv_dirty.oof_scores;
  in_dirty.sensitive_col = sensitive;
  in_dirty.admissible_cols = admissible;
  fairness::FairnessInputs in_clean = in_dirty;
  in_clean.scores = cv_clean.oof_scores;

  const double rod_dirty = std::fabs(fairness::LogRod(in_dirty).value());
  const double rod_clean = std::fabs(fairness::LogRod(in_clean).value());

  EXPECT_LT(rod_clean, rod_dirty);
  EXPECT_GT(cv_clean.mean_auc, 0.5);
  // AUC should not collapse relative to the dirty baseline.
  EXPECT_GT(cv_clean.mean_auc, cv_dirty.mean_auc - 0.15);
}

/// End-to-end attribute-noise pipeline (the Fig. 6 flow): models trained on
/// noisy data lose AUC on clean test data; OTClean repair recovers much of
/// it.
TEST(IntegrationTest, AttributeNoisePipelineRecoversAuc) {
  const auto bundle = datagen::MakeCar(2500, 901).value();
  const auto& clean = bundle.table;
  const size_t label = clean.schema().ColumnIndex(bundle.label_col).value();
  const auto features = ml::AllFeaturesExcept(clean.schema(), label);

  // Split into train/test halves.
  std::vector<size_t> train_rows, test_rows;
  for (size_t r = 0; r < clean.num_rows(); ++r) {
    (r % 2 == 0 ? train_rows : test_rows).push_back(r);
  }
  const auto train_clean = clean.SelectRows(train_rows);
  const auto test = clean.SelectRows(test_rows);

  cleaning::AttributeNoiseOptions noise;
  noise.target_col = clean.schema().ColumnIndex("doors").value();
  noise.driver_col = label;
  noise.rate = 0.8;
  noise.seed = 902;
  const auto train_dirty =
      cleaning::InjectAttributeNoise(train_clean, noise).value();

  const auto factory = [] { return std::make_unique<ml::LogisticRegression>(); };

  const double auc_clean =
      ml::TrainAndEvaluate(train_clean, test, label, features, factory)
          ->auc;
  const double auc_dirty =
      ml::TrainAndEvaluate(train_dirty, test, label, features, factory)
          ->auc;

  core::RepairOptions opts;
  const auto repaired =
      core::RepairTable(train_dirty, bundle.constraint, opts).value();
  const double auc_otclean =
      ml::TrainAndEvaluate(repaired.repaired, test, label, features, factory)
          ->auc;

  // Noise hurts; repair recovers at least part of the gap.
  EXPECT_LT(auc_dirty, auc_clean);
  EXPECT_GT(auc_otclean, auc_dirty - 0.02);
}

/// Imputation + OTClean pipeline (Figs. 7/8 flow): MF imputation under MAR
/// noise introduces spurious correlation; OTClean post-processing reduces
/// the constraint violation.
TEST(IntegrationTest, ImputationPipelineReducesCmi) {
  const auto bundle = datagen::MakeBoston(2000, 903).value();
  const auto& clean = bundle.table;
  cleaning::MissingnessOptions miss;
  miss.target_col = clean.schema().ColumnIndex("B").value();
  miss.driver_col = clean.schema().ColumnIndex("medv").value();
  miss.mechanism = cleaning::MissingMechanism::kMar;
  miss.rate = 0.5;
  miss.seed = 904;
  const auto dirty = cleaning::InjectMissingness(clean, miss).value();

  cleaning::MostFrequentImputer mf;
  const auto imputed = mf.Impute(dirty).value();
  const double cmi_imputed =
      core::TableCmi(imputed, bundle.constraint).value();

  const auto repaired =
      core::RepairTable(imputed, bundle.constraint).value();
  EXPECT_LT(repaired.final_cmi, cmi_imputed + 1e-9);
  EXPECT_LT(repaired.target_cmi, 1e-6);
}

/// MLKR-learned cost (C2) plugs into the repair pipeline end to end.
TEST(IntegrationTest, MlkrCostPipeline) {
  const auto bundle = datagen::MakeCompas(1200, 905).value();
  const auto& t = bundle.table;
  const size_t label = t.schema().ColumnIndex(bundle.label_col).value();
  const auto u_cols = bundle.constraint.ResolveColumns(t.schema()).value();

  metric::MlkrOptions mlkr_opts;
  mlkr_opts.max_rows = 120;
  mlkr_opts.epochs = 20;
  const auto mlkr =
      metric::LearnMlkrWeights(t, label, u_cols, mlkr_opts).value();
  ot::WeightedEuclideanCost cost(mlkr.weights);

  core::OtCleanRepairer repairer(bundle.constraint);
  ASSERT_TRUE(repairer.Fit(t, &cost).ok());
  Rng rng(906);
  const auto repaired = repairer.Apply(t, rng).value();
  EXPECT_LT(core::TableCmi(repaired, bundle.constraint).value(),
            core::TableCmi(t, bundle.constraint).value());
}

/// OTClean vs Capuchin on the same data: both reduce CMI; OTClean's
/// distribution stays closer to the original (the paper's headline claim).
TEST(IntegrationTest, OtcleanPreservesDistributionBetterThanCapuchin) {
  const auto bundle = datagen::MakeCompas(3000, 907).value();
  const auto& t = bundle.table;
  const auto u_cols = bundle.constraint.ResolveColumns(t.schema()).value();

  const auto ot_repair = core::RepairTable(t, bundle.constraint).value();
  core::RepairOptions cap_opts;
  cap_opts.solver = core::Solver::kCapuchinIC;
  cap_opts.seed = 99;
  const auto cap_repair =
      core::RepairTable(t, bundle.constraint, cap_opts).value().repaired;

  const auto p0 = t.Empirical(u_cols);
  const auto p_ot = ot_repair.repaired.Empirical(u_cols);
  const auto p_cap = cap_repair.Empirical(u_cols);
  const double tv_ot = p0.TotalVariation(p_ot);
  const double tv_cap = p0.TotalVariation(p_cap);
  // OT explicitly minimizes movement; Capuchin resamples U wholesale. OT
  // should distort no more than Capuchin (allow slack for sampling noise).
  EXPECT_LE(tv_ot, tv_cap + 0.05);
}

}  // namespace
}  // namespace otclean
