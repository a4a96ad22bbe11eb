// Figures 13 & 14: FastOTClean versus the exact QCLP solver as the
// constraint domain grows — runtime (Fig. 13) and memory (Fig. 14).
//
// Reproduction targets: QCLP is competitive (even faster) on the smallest
// domains but its dense LP tableau grows so fast that it becomes
// impractical, while FastOTClean keeps scaling; QCLP always needs more
// memory.

#include "bench_common.h"

using namespace otclean;

namespace {

struct Point {
  size_t domain = 0;
  double fast_sec = -1.0, qclp_sec = -1.0;
  double fast_mb = 0.0, qclp_mb = 0.0;
};

Point RunOnce(size_t num_z, size_t z_card, bool run_qclp) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 1500;
  gen.num_z_attrs = num_z;
  gen.z_card = z_card;
  gen.violation = 0.5;
  gen.seed = 131;
  const auto table = datagen::MakeScalingDataset(gen).value();
  std::vector<std::string> zs;
  for (size_t i = 0; i < num_z; ++i) zs.push_back("z" + std::to_string(i));
  const core::CiConstraint ci({"x"}, {"y"}, zs);
  const auto u_cols = ci.ResolveColumns(table.schema()).value();
  const auto p = table.Empirical(u_cols);
  const auto spec = ci.SpecInProjectedDomain();
  ot::EuclideanCost cost(u_cols.size());

  Point out;
  out.domain = p.domain().TotalSize();
  {
    const core::FastOtCleanOptions opts = bench::BenchRepairOptions().fast;
    Rng rng(132);
    WallTimer timer;
    const auto r = core::FastOtClean(p, spec, cost, opts, rng);
    if (r.ok()) {
      out.fast_sec = timer.ElapsedSeconds();
      out.fast_mb = 3.0 * r->plan.row_cells().size() *
                    r->plan.col_cells().size() * sizeof(double) / 1e6;
    }
  }
  if (run_qclp) {
    core::QclpOptions opts;
    opts.max_outer_iterations = 6;
    WallTimer timer;
    const auto r = core::QclpClean(p, spec, cost, opts);
    if (r.ok()) {
      out.qclp_sec = timer.ElapsedSeconds();
      out.qclp_mb = static_cast<double>(r->peak_tableau_bytes) / 1e6;
    }
  }
  return out;
}

}  // namespace

int OTCLEAN_BENCH_MAIN(fig13_14_qclp_scaling) {
  const bool full = bench::FullScale(argc, argv);
  bench::PrintHeader(
      "Figures 13/14: FastOTClean vs QCLP, runtime & memory vs domain size",
      "QCLP wins only on tiny domains, then fails to scale; its memory "
      "always dominates");

  std::printf("%-10s %-12s %-12s %-12s %-12s\n", "domain", "fast_t(s)",
              "qclp_t(s)", "fast_MB", "qclp_MB");
  struct Config {
    size_t num_z, z_card;
    bool qclp;
  };
  std::vector<Config> configs = {{1, 2, true},  {1, 3, true}, {1, 4, true},
                                 {2, 3, true},  {1, 8, true}, {2, 4, true},
                                 {3, 3, false}, {2, 6, false}};
  if (full) {
    configs.push_back({2, 5, true});
    configs.push_back({4, 3, false});
  }
  for (const auto& config : configs) {
    const auto point = RunOnce(config.num_z, config.z_card, config.qclp);
    auto fmt = [](double v) { return v < 0 ? -1.0 : v; };
    std::printf("%-10zu %-12.3f %-12.3f %-12.3f %-12.3f\n", point.domain,
                fmt(point.fast_sec), fmt(point.qclp_sec), point.fast_mb,
                point.qclp_mb);
  }
  std::printf("# qclp_t = -1 means not run / failed (domain too large, as "
              "in the paper's NA entries)\n");
  return 0;
}
