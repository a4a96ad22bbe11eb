// Plan-storage + execution-engine bench for the sparse end-to-end path:
//
//   1. End-to-end FastOTClean, dense vs truncated-sparse kernel: kernel
//      nonzeros, the fitted plan's storage (entries / bytes — CSR keeps
//      exactly the kernel support, dense pays rows×cols), and wall time.
//   2. Pooled vs inline kernel dispatch at small plan sizes, where the
//      dispatch cost competes with the arithmetic: the same Sinkhorn
//      scaling loop on the same kernel, with and without a ThreadPool
//      (without one, the same chunks run inline on the calling thread).
//
// Cross-checks that sparse results match dense (cost within tolerance) and
// that pooled potentials are bit-identical to inline ones — a silent
// mismatch fails the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "linalg/thread_pool.h"

using namespace otclean;

namespace {

linalg::Matrix RandomCost(size_t m, size_t n, Rng& rng) {
  linalg::Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * 3.0;
  return cost;
}

linalg::Vector RandomMarginal(size_t n, Rng& rng) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  bool ok = true;

  // ---- 1. End-to-end FastOTClean: dense vs sparse plan storage. ----
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

  // ---- 2. Pooled vs inline dispatch on small plans. ----
  bench::PrintHeader(
      "Execution: persistent ThreadPool vs inline kernels",
      "pooled dispatch spreads each primitive's chunks over the pool's "
      "workers; inline runs the same chunks on the calling thread");

  // At least 2 so the dispatch machinery engages even on a 1-core box
  // (with 1 thread both modes run one inline chunk and measure the same
  // thing).
  const size_t threads = std::max<size_t>(2, linalg::ResolveThreadCount(0));
  std::printf("# threads: %zu\n", threads);
  std::printf("%-8s %-10s %-12s %-12s %-10s %-10s\n", "size", "mode",
              "seconds", "iters", "iters_per_s", "speedup");
  Rng rng(13);
  const std::vector<size_t> sizes{64, 128, 256, full ? 1024u : 512u};
  for (const size_t n : sizes) {
    const linalg::Matrix cost = RandomCost(n, n, rng);
    const linalg::Vector p = RandomMarginal(n, rng);
    const linalg::Vector q = RandomMarginal(n, rng);
    ot::SinkhornOptions opts;
    opts.epsilon = 0.1;
    opts.relaxed = true;
    opts.lambda = 5.0;
    opts.tolerance = 1e-10;
    opts.num_threads = threads;

    double inline_seconds = 0.0;
    ot::SinkhornScaling inline_result;
    for (const bool pooled : {false, true}) {
      // Build the kernel outside the timer (shared by both modes); time
      // only the scaling loop the pool accelerates.
      linalg::ThreadPool pool(threads);
      const linalg::DenseTransportKernel kernel =
          linalg::DenseTransportKernel::FromCost(
              cost, opts.epsilon, threads, pooled ? &pool : nullptr);
      WallTimer timer;
      const auto scaling =
          ot::RunSinkhornScaling(kernel, p, q, opts).value();
      const double seconds = timer.ElapsedSeconds();
      if (!pooled) {
        inline_seconds = seconds;
        inline_result = scaling;
      } else if (!scaling.u.ApproxEquals(inline_result.u, 0.0) ||
                 !scaling.v.ApproxEquals(inline_result.v, 0.0) ||
                 scaling.iterations != inline_result.iterations) {
        ok = false;
      }
      std::printf("%-8zu %-10s %-12.4f %-12zu %-10.0f %-10.2f\n", n,
                  pooled ? "pooled" : "inline", seconds, scaling.iterations,
                  static_cast<double>(scaling.iterations) /
                      (seconds > 0.0 ? seconds : 1e-9),
                  pooled ? inline_seconds / (seconds > 0.0 ? seconds : 1e-9)
                         : 1.0);
    }
  }
  std::printf("# cross-checks passed = %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
