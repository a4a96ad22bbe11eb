#ifndef OTCLEAN_BENCH_BENCH_COMMON_H_
#define OTCLEAN_BENCH_BENCH_COMMON_H_

// Shared plumbing for the experiment harnesses that regenerate the paper's
// tables and figures. Each bench binary prints the paper's reported shape
// (as a comment) followed by measured rows in the same layout. Pass
// `--full` for the paper-scale grid (slower); the default grid is reduced
// so the whole suite runs in minutes.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "otclean/otclean.h"

// Entry-point naming for the paper-figure suite. Standalone builds keep a
// real `main`, so every bench_fig*/bench_table* file stays an individually
// runnable binary. The combined `bench_figures` harness compiles the same
// files with OTCLEAN_BENCH_FIGURES_COMBINED defined, renaming each entry
// point to RunBench_<name> so one driver can run the whole suite and emit
// a single BENCH_figures.json. Usage in a bench file:
//   int OTCLEAN_BENCH_MAIN(fig1_regularization) { ... }
#ifdef OTCLEAN_BENCH_FIGURES_COMBINED
#define OTCLEAN_BENCH_MAIN(name) RunBench_##name(int argc, char** argv)
#else
#define OTCLEAN_BENCH_MAIN(name) main(int argc, char** argv)
#endif

namespace otclean::bench {

/// True when the binary was invoked with --full.
inline bool FullScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

inline void PrintHeader(const char* experiment, const char* paper_shape) {
  std::printf("\n==== %s ====\n", experiment);
  std::printf("# paper shape: %s\n", paper_shape);
}

/// FastOTClean options sized for the reduced bench grids: iteration caps
/// keep large domains tractable while preserving the algorithmic path.
inline core::RepairOptions BenchRepairOptions() {
  core::RepairOptions opts;
  opts.fast.epsilon = 0.08;
  opts.fast.lambda = 80.0;
  opts.fast.max_outer_iterations = 40;
  opts.fast.outer_tolerance = 1e-6;
  opts.fast.max_sinkhorn_iterations = 400;
  opts.fast.sinkhorn_tolerance = 1e-8;
  return opts;
}

/// The evaluation protocol of Section 6.2/6.3: per-fold training-data
/// transformation + cross-validated logistic regression.
struct PipelineResult {
  double auc = 0.0;
  double f1 = 0.0;
  std::vector<double> oof_scores;
};

inline Result<PipelineResult> RunPipeline(
    const dataset::Table& table, size_t label_col,
    const std::vector<size_t>& features, const ml::TrainTransform& transform,
    size_t folds = 3, uint64_t seed = 1234) {
  ml::CrossValidationOptions cv;
  cv.num_folds = folds;
  cv.seed = seed;
  OTCLEAN_ASSIGN_OR_RETURN(
      ml::CrossValidationResult r,
      ml::CrossValidate(table, label_col, features,
                        [] { return std::make_unique<ml::LogisticRegression>(); },
                        cv, transform));
  PipelineResult out;
  out.auc = r.mean_auc;
  out.f1 = r.mean_f1;
  out.oof_scores = std::move(r.oof_scores);
  return out;
}

/// Holdout evaluation against a clean test set (the Fig. 6–8 protocol).
inline Result<ml::HoldoutResult> EvalOnCleanTest(
    const dataset::Table& train, const dataset::Table& test, size_t label_col,
    const std::vector<size_t>& features) {
  return ml::TrainAndEvaluate(
      train, test, label_col, features,
      [] { return std::make_unique<ml::LogisticRegression>(); });
}

}  // namespace otclean::bench

#endif  // OTCLEAN_BENCH_BENCH_COMMON_H_
