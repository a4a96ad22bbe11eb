// Fairness example: train a classifier on a COMPAS-style dataset before and
// after enforcing the interventional-fairness CI constraint
// (race _||_ {age-cat, priors-count} | charge-degree) with OTClean,
// and compare AUC and log-ROD — the Section 6.2 workflow.

#include <cmath>
#include <cstdio>
#include <memory>

#include "otclean/otclean.h"

using namespace otclean;

int main() {
  auto bundle_r = datagen::MakeCompas(3000, 42);
  if (!bundle_r.ok()) {
    std::printf("datagen failed: %s\n", bundle_r.status().ToString().c_str());
    return 1;
  }
  const auto& bundle = *bundle_r;
  const auto& table = bundle.table;
  const auto& schema = table.schema();
  const size_t label = schema.ColumnIndex(bundle.label_col).value();
  const size_t sensitive = schema.ColumnIndex(bundle.sensitive_col).value();

  std::vector<size_t> admissible, features;
  for (const auto& name : bundle.admissible_cols) {
    admissible.push_back(schema.ColumnIndex(name).value());
  }
  features = admissible;
  for (const auto& name : bundle.inadmissible_cols) {
    features.push_back(schema.ColumnIndex(name).value());
  }

  const auto factory = [] { return std::make_unique<ml::LogisticRegression>(); };
  ml::CrossValidationOptions cv;
  cv.num_folds = 5;

  auto evaluate = [&](const ml::TrainTransform& transform, const char* tag) {
    const auto r =
        ml::CrossValidate(table, label, features, factory, cv, transform);
    if (!r.ok()) {
      std::printf("%s: failed (%s)\n", tag, r.status().ToString().c_str());
      return;
    }
    fairness::FairnessInputs in;
    in.table = &table;
    in.scores = r->oof_scores;
    in.sensitive_col = sensitive;
    in.admissible_cols = admissible;
    const double rod = fairness::LogRod(in).value_or(0.0);
    const double dp = fairness::DemographicParityGap(in).value_or(0.0);
    std::printf("%-12s AUC=%.3f  |log ROD|=%.3f  DP gap=%.3f\n", tag,
                r->mean_auc, std::fabs(rod), dp);
  };

  evaluate(nullptr, "No repair");

  core::RepairOptions repair;
  repair.fast.epsilon = 0.08;
  evaluate(
      [&](const dataset::Table& train) -> Result<dataset::Table> {
        OTCLEAN_ASSIGN_OR_RETURN(
            core::RepairReport rep,
            core::RepairTable(train, bundle.constraint, repair));
        return rep.repaired;
      },
      "OTClean");

  // The Capuchin baseline runs through the same pipeline, one solver away.
  core::RepairOptions capuchin;
  capuchin.solver = core::Solver::kCapuchinIC;
  evaluate(
      [&](const dataset::Table& train) -> Result<dataset::Table> {
        OTCLEAN_ASSIGN_OR_RETURN(
            core::RepairReport rep,
            core::RepairTable(train, bundle.constraint, capuchin));
        return rep.repaired;
      },
      "Cap(IC)");

  return 0;
}
