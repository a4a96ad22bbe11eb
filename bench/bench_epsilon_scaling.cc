// f32-tier bench for the plain Sinkhorn entry points: what the f32
// storage tier buys per solve against f64, at dense and truncated-sparse
// kernels, at a sharp fixed ε from a cold start.
//
// Four configurations per grid point: {dense, sparse} × {f64, f32}.
// Reported per row: iterations to tolerance and wall time; per size, the
// f32-vs-f64 wall ratio. Every run must converge, or the bench fails
// (exit 1) — so an f32 kernel that stalls short of the f64 tolerance
// cannot land silently. Wall-clock ratios are reported but not gated —
// they depend on the machine.
//
// Results are written to BENCH_epsilon_scaling.json.
//
// Flags:
//   --full     add the 2048² grid point (slower)
//   --smoke    256² only: CI smoke mode
//   (any --benchmark_min_time=... flag is treated as --smoke)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "linalg/precision.h"
#include "linalg/simd.h"
#include "ot/sinkhorn.h"

using namespace otclean;

namespace {

/// Squared distance on the unit line, range [0, 1]. Deliberately smooth
/// and underflow-safe: max C/ε = 100, far from the e^{-708} double
/// cliff, so convergence is in the regular (plateau-free) regime.
linalg::Matrix BenchCost(size_t n) {
  linalg::Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double d = (static_cast<double>(i) - static_cast<double>(j)) /
                       static_cast<double>(n);
      cost(i, j) = d * d;
    }
  }
  return cost;
}

linalg::Vector RandomMarginal(size_t n, Rng& rng) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

struct RunStats {
  size_t iterations = 0;
  double ms = 0.0;
  bool converged = false;
};

struct BenchRow {
  const char* kind;       ///< "dense" | "sparse"
  const char* precision;  ///< "f64" | "f32"
  size_t n = 0;
  RunStats run;
};

/// One solve of the given configuration; ms is a single wall measurement.
RunStats RunOnce(const linalg::Matrix& cost, const linalg::Vector& p,
                 const linalg::Vector& q, const ot::SinkhornOptions& options,
                 bool sparse, double cutoff) {
  RunStats stats;
  WallTimer timer;
  if (sparse) {
    auto r = ot::RunSinkhornSparse(cost, p, q, options, cutoff);
    if (!r.ok()) {
      std::fprintf(stderr, "sparse solve failed: %s\n",
                   r.status().ToString().c_str());
      return stats;
    }
    stats.ms = timer.ElapsedSeconds() * 1e3;
    stats.iterations = r->iterations;
    stats.converged = r->converged;
  } else {
    auto r = ot::RunSinkhorn(cost, p, q, options);
    if (!r.ok()) {
      std::fprintf(stderr, "dense solve failed: %s\n",
                   r.status().ToString().c_str());
      return stats;
    }
    stats.ms = timer.ElapsedSeconds() * 1e3;
    stats.iterations = r->iterations;
    stats.converged = r->converged;
  }
  return stats;
}

void WriteJson(const std::string& path, const std::vector<BenchRow>& rows,
               bool all_converged) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"epsilon_scaling\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", linalg::simd::ActiveIsaName());
  std::fprintf(f, "  \"single_thread\": true,\n");
  std::fprintf(f, "  \"all_converged\": %s,\n",
               all_converged ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"kind\": \"%s\", \"precision\": \"%s\", \"n\": %zu, "
        "\"iterations\": %zu, \"ms\": %.3f, \"converged\": %s}%s\n",
        r.kind, r.precision, r.n, r.run.iterations, r.run.ms,
        r.run.converged ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) {
      smoke = true;
    }
  }
  const bool full = bench::FullScale(argc, argv);

  bench::PrintHeader(
      "f32 kernel tier on plain Sinkhorn",
      "wall time to tolerance at a sharp fixed ε, f32 vs f64 kernels");

  std::vector<size_t> sizes;
  if (smoke) {
    sizes = {256};
  } else {
    sizes = {256, 512, 1024};
    if (full) sizes.push_back(2048);
  }

  // A sharp ε with a tight tolerance, solved to the geometric tail.
  ot::SinkhornOptions base;
  base.epsilon = 0.01;
  base.tolerance = 1e-8;
  base.max_iterations = 200000;
  base.num_threads = 1;

  // Truncation cutoff in kernel space: e^{-C/0.01} with costs in [0, 1]
  // spans down to e^{-100}; 1e-30 keeps C ≲ 0.69 — a band around the
  // diagonal holding ~69% of entries.
  const double cutoff = 1e-30;

  std::vector<BenchRow> rows;
  Rng rng(29);

  std::printf("%-7s %-5s %-6s %-11s %-10s %s\n", "kind", "prec", "n",
              "iterations", "ms", "converged");
  for (const size_t n : sizes) {
    const linalg::Matrix cost = BenchCost(n);
    const linalg::Vector p = RandomMarginal(n, rng);
    const linalg::Vector q = RandomMarginal(n, rng);

    for (const bool sparse : {false, true}) {
      for (const linalg::Precision precision :
           {linalg::Precision::kFloat64, linalg::Precision::kFloat32}) {
        BenchRow row;
        row.kind = sparse ? "sparse" : "dense";
        row.precision =
            precision == linalg::Precision::kFloat32 ? "f32" : "f64";
        row.n = n;

        ot::SinkhornOptions options = base;
        options.precision = precision;
        row.run = RunOnce(cost, p, q, options, sparse, cutoff);
        std::printf("%-7s %-5s %-6zu %-11zu %-10.2f %s\n", row.kind,
                    row.precision, n, row.run.iterations, row.run.ms,
                    row.run.converged ? "yes" : "NO");
        rows.push_back(row);
      }
    }
    // f32-vs-f64 wall-clock at this n (not gated).
    for (size_t i = rows.size() - 4; i + 1 < rows.size(); i += 2) {
      const BenchRow& f64_row = rows[i];
      const BenchRow& f32_row = rows[i + 1];
      std::printf("# %s %zu: f32 wall %.2f ms vs f64 %.2f ms (%.2fx)\n",
                  f64_row.kind, n, f32_row.run.ms, f64_row.run.ms,
                  f32_row.run.ms > 0.0 ? f64_row.run.ms / f32_row.run.ms
                                       : 0.0);
    }
  }

  // The gate: every run converges.
  bool all_converged = true;
  for (const BenchRow& row : rows) all_converged &= row.run.converged;

  WriteJson("BENCH_epsilon_scaling.json", rows, all_converged);
  std::printf("# every run converged = %s\n", all_converged ? "yes" : "NO");
  return all_converged ? 0 : 1;
}
