#ifndef OTCLEAN_BENCH_BENCH_FAIRNESS_H_
#define OTCLEAN_BENCH_BENCH_FAIRNESS_H_

// Shared harness for the fairness experiments (Fig. 4, Fig. 5, Table 3).
//
// Protocol (Section 6.2): k-fold cross validation with a per-fold repair of
// the *training* partition. OTClean's probabilistic cleaner is a tuple-level
// mapping (the paper highlights its streaming/deployment use), so for the
// OTClean methods the fitted cleaner is also applied to evaluation tuples
// before scoring — the deployment-pipeline view. The Capuchin methods are
// database repairs and only transform the training data.

#include <cmath>

#include "bench_common.h"

namespace otclean::bench {

struct FairnessRow {
  std::string method;
  double auc = 0.0;
  double abs_log_rod = 0.0;
  double eo_gap = 0.0;
  double dp_gap = 0.0;
  double repair_seconds = 0.0;
  bool ok = false;
};

struct FairnessBenchConfig {
  size_t cv_folds = 3;
  bool include_qclp = false;  ///< only feasible on small constraint domains.
  uint64_t seed = 7;
};

namespace internal {

/// One fold's preparation: transformed training table plus an optional
/// tuple-level cleaner to apply to evaluation rows.
struct PreparedFold {
  dataset::Table train;
  std::shared_ptr<core::OtCleanRepairer> row_cleaner;
};

using FoldPrep =
    std::function<Result<PreparedFold>(const dataset::Table& train)>;

struct EvalOutput {
  double auc = 0.0;
  std::vector<double> oof_scores;
};

/// Custom CV loop: fit on prepared train, score evaluation rows (optionally
/// routed through the fold's tuple cleaner).
inline Result<EvalOutput> CrossValidateWithCleaner(
    const dataset::Table& table, size_t label,
    const std::vector<size_t>& features, const FoldPrep& prep, size_t folds,
    uint64_t seed) {
  OTCLEAN_ASSIGN_OR_RETURN(std::vector<int> labels,
                           ml::BinaryLabels(table, label));
  Rng rng(seed);
  const std::vector<size_t> fold_of = ml::StratifiedFolds(labels, folds, rng);

  EvalOutput out;
  out.oof_scores.assign(table.num_rows(), 0.5);
  std::vector<double> fold_auc;
  for (size_t fold = 0; fold < folds; ++fold) {
    std::vector<size_t> train_rows, test_rows;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      (fold_of[r] == fold ? test_rows : train_rows).push_back(r);
    }
    if (train_rows.empty() || test_rows.empty()) continue;

    PreparedFold prepared{table.SelectRows(train_rows), nullptr};
    if (prep) {
      OTCLEAN_ASSIGN_OR_RETURN(prepared, prep(prepared.train));
    }
    ml::LogisticRegression model;
    OTCLEAN_RETURN_NOT_OK(prepared.train.num_rows() > 0
                              ? model.Fit(prepared.train, label, features)
                              : Status::Internal("empty train fold"));

    Rng clean_rng(seed ^ (fold + 1));
    std::vector<int> test_labels;
    std::vector<double> test_scores;
    for (size_t r : test_rows) {
      std::vector<int> row = table.Row(r);
      if (prepared.row_cleaner != nullptr) {
        row = prepared.row_cleaner->RepairRow(row, clean_rng);
      }
      const double score = model.PredictProb(row);
      out.oof_scores[r] = score;
      test_labels.push_back(labels[r]);
      test_scores.push_back(score);
    }
    fold_auc.push_back(ml::Auc(test_labels, test_scores));
  }
  if (fold_auc.empty()) return Status::Internal("no folds evaluated");
  for (double a : fold_auc) out.auc += a;
  out.auc /= static_cast<double>(fold_auc.size());
  return out;
}

}  // namespace internal

inline std::vector<FairnessRow> RunFairnessBench(
    const datagen::DatasetBundle& bundle, const FairnessBenchConfig& config) {
  const auto& table = bundle.table;
  const auto& schema = table.schema();
  const size_t label = schema.ColumnIndex(bundle.label_col).value();
  const size_t sensitive = schema.ColumnIndex(bundle.sensitive_col).value();

  std::vector<size_t> admissible;
  for (const auto& name : bundle.admissible_cols) {
    admissible.push_back(schema.ColumnIndex(name).value());
  }
  std::vector<size_t> inadmissible;
  for (const auto& name : bundle.inadmissible_cols) {
    inadmissible.push_back(schema.ColumnIndex(name).value());
  }
  std::vector<size_t> features = admissible;
  features.insert(features.end(), inadmissible.begin(), inadmissible.end());

  // The fairness cost (Section 6.2): sensitive and admissible attributes are
  // frozen; only inadmissible attributes may move. Cleaned sub-domain layout:
  // X = sensitive, Y = inadmissible, Z = admissible.
  const size_t u_arity = 1 + inadmissible.size() + admissible.size();
  std::vector<size_t> frozen = {0};
  for (size_t i = 0; i < admissible.size(); ++i) {
    frozen.push_back(1 + inadmissible.size() + i);
  }

  auto otclean_prep = [&bundle, label, u_arity, frozen](bool learned_cost) {
    return [&bundle, label, u_arity, frozen, learned_cost](
               const dataset::Table& train)
               -> Result<internal::PreparedFold> {
      core::RepairOptions opts = BenchRepairOptions();
      std::unique_ptr<ot::CostFunction> cost;
      if (learned_cost) {
        OTCLEAN_ASSIGN_OR_RETURN(
            std::vector<size_t> u_cols,
            bundle.constraint.ResolveColumns(train.schema()));
        metric::MlkrOptions mopts;
        mopts.max_rows = 150;
        mopts.epochs = 15;
        auto mlkr = metric::LearnMlkrWeights(train, label, u_cols, mopts);
        if (mlkr.ok()) {
          auto base = std::make_shared<ot::WeightedEuclideanCost>(
              std::move(mlkr->weights));
          auto fr = std::make_shared<std::vector<bool>>(u_arity, false);
          for (size_t f : frozen) (*fr)[f] = true;
          cost = std::make_unique<ot::LambdaCost>(
              [base, fr](const std::vector<int>& a,
                         const std::vector<int>& b) {
                for (size_t i = 0; i < a.size(); ++i) {
                  if ((*fr)[i] && a[i] != b[i]) return 1e6;
                }
                return base->Cost(a, b);
              });
        }
      }
      if (cost == nullptr) {
        cost = std::make_unique<ot::FairnessCost>(frozen, u_arity);
      }
      auto repairer =
          std::make_shared<core::OtCleanRepairer>(bundle.constraint, opts);
      OTCLEAN_RETURN_NOT_OK(repairer->Fit(train, cost.get()));
      Rng rng(4242);
      OTCLEAN_ASSIGN_OR_RETURN(dataset::Table repaired,
                               repairer->Apply(train, rng));
      return internal::PreparedFold{std::move(repaired), repairer};
    };
  };

  auto qclp_prep =
      [&bundle, u_arity,
       frozen](const dataset::Table& train) -> Result<internal::PreparedFold> {
    core::RepairOptions opts;
    opts.solver = core::Solver::kQclp;
    opts.qclp.max_outer_iterations = 8;
    opts.qclp.restrict_columns_to_active = true;
    ot::FairnessCost cost(frozen, u_arity);
    auto repairer =
        std::make_shared<core::OtCleanRepairer>(bundle.constraint, opts);
    OTCLEAN_RETURN_NOT_OK(repairer->Fit(train, &cost));
    Rng rng(4243);
    OTCLEAN_ASSIGN_OR_RETURN(dataset::Table repaired,
                             repairer->Apply(train, rng));
    return internal::PreparedFold{std::move(repaired), repairer};
  };

  auto capuchin_prep = [&bundle](core::Solver solver) {
    return [&bundle, solver](const dataset::Table& train)
               -> Result<internal::PreparedFold> {
      core::RepairOptions opts;
      opts.solver = solver;
      OTCLEAN_ASSIGN_OR_RETURN(
          core::RepairReport report,
          core::RepairTable(train, bundle.constraint, opts));
      return internal::PreparedFold{std::move(report.repaired), nullptr};
    };
  };

  auto maxsat_prep =
      [&bundle](const dataset::Table& train) -> Result<internal::PreparedFold> {
    fairness::CapMaxSatOptions opts;
    opts.maxsat.max_flips = 60000;
    opts.maxsat.restarts = 1;
    OTCLEAN_ASSIGN_OR_RETURN(
        fairness::CapMaxSatReport report,
        fairness::CapMaxSatRepair(train, bundle.constraint, opts));
    return internal::PreparedFold{std::move(report.repaired), nullptr};
  };

  struct Method {
    std::string name;
    internal::FoldPrep prep;
    bool dropped = false;
  };
  std::vector<Method> methods;
  methods.push_back({"No repair", nullptr, false});
  methods.push_back({"FastOTClean-C1", otclean_prep(false), false});
  methods.push_back({"FastOTClean-C2", otclean_prep(true), false});
  if (config.include_qclp) methods.push_back({"QCLP", qclp_prep, false});
  methods.push_back(
      {"Cap(MF)", capuchin_prep(core::Solver::kCapuchinMF), false});
  methods.push_back(
      {"Cap(IC)", capuchin_prep(core::Solver::kCapuchinIC), false});
  methods.push_back({"Cap(MS)", maxsat_prep, false});
  methods.push_back({"Dropped", nullptr, true});

  std::vector<FairnessRow> rows;
  for (const auto& method : methods) {
    FairnessRow row;
    row.method = method.name;
    const auto& used_features = method.dropped ? admissible : features;

    WallTimer timer;
    const auto result = internal::CrossValidateWithCleaner(
        table, label, used_features, method.prep, config.cv_folds,
        config.seed);
    row.repair_seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      rows.push_back(row);
      continue;
    }
    row.auc = result->auc;

    fairness::FairnessInputs in;
    in.table = &table;
    in.scores = result->oof_scores;
    in.sensitive_col = sensitive;
    in.admissible_cols = admissible;
    row.abs_log_rod = std::fabs(fairness::LogRod(in).value_or(0.0));
    row.eo_gap = fairness::EqualityOfOddsGap(in, label).value_or(0.0);
    row.dp_gap = fairness::DemographicParityGap(in).value_or(0.0);
    row.ok = true;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace otclean::bench

#endif  // OTCLEAN_BENCH_BENCH_FAIRNESS_H_
