// Plan-storage bench for the sparse end-to-end path: FastOTClean with a
// dense vs a truncated-sparse kernel, reporting kernel nonzeros, the
// fitted plan's storage (entries / bytes — CSR keeps exactly the kernel
// support, dense pays rows×cols), and wall time. Cross-checks that the
// sparse repair's transport cost matches the dense one — a silent mismatch
// fails the run. (Pooled vs inline kernel dispatch is bench_kernel_parallel's
// sweep.)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"

using namespace otclean;

int main(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  bool ok = true;

  bench::PrintHeader(
      "Plan storage: dense vs CSR through FastOTClean + repair",
      "sparse plans cut kernel/plan memory by the truncation factor at "
      "unchanged repair quality (Section 6.5)");

  datagen::ScalingDatasetOptions gen;
  gen.num_rows = full ? 8000 : 3000;
  gen.num_z_attrs = full ? 4 : 3;
  gen.z_card = 3;
  gen.violation = 0.5;
  gen.seed = 7;
  const auto table = datagen::MakeScalingDataset(gen).value();
  const core::CiConstraint ci(
      {"x"}, {"y"},
      [&] {
        std::vector<std::string> zs;
        for (size_t i = 0; i < gen.num_z_attrs; ++i) {
          zs.push_back("z" + std::to_string(i));
        }
        return zs;
      }());

  std::printf("%-10s %-12s %-12s %-14s %-10s %-10s\n", "storage",
              "kernel_nnz", "plan_nnz", "plan_KiB", "cost", "time(s)");
  double dense_cost = 0.0;
  for (const double cutoff : {0.0, 1e-8}) {
    core::RepairOptions options;
    options.fast.epsilon = 0.1;
    options.fast.max_outer_iterations = 40;
    options.fast.max_sinkhorn_iterations = 1000;
    options.fast.kernel_truncation = cutoff;
    WallTimer timer;
    const auto report = core::RepairTable(table, ci, options);
    if (!report.ok()) {
      std::printf("%-10s failed: %s\n", cutoff > 0.0 ? "sparse" : "dense",
                  report.status().ToString().c_str());
      ok = false;
      continue;
    }
    if (cutoff == 0.0) {
      dense_cost = report->transport_cost;
    } else if (std::fabs(report->transport_cost - dense_cost) > 0.05) {
      ok = false;
    }
    std::printf("%-10s %-12zu %-12zu %-14.1f %-10.4f %-10.2f\n",
                report->plan_sparse ? "sparse" : "dense", report->kernel_nnz,
                report->plan_nnz,
                static_cast<double>(report->plan_memory_bytes) / 1024.0,
                report->transport_cost, timer.ElapsedSeconds());
  }

  std::printf("# cross-checks passed = %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
