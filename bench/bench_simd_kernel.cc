// Scalar-vs-SIMD bench for the TransportKernel primitives: dense Apply /
// ApplyTranspose, sparse (CSR gather) Apply, ScaleToPlan, and the
// TransportCost reduction, at 256²–4096², single thread.
//
// Timing compares the scalar reference tier against the widest tier the
// CPU supports, through the real kernel objects. Cross-checking covers
// EVERY supported vector tier (not just the widest): each op's output is
// validated against scalar under avx2, avx512, and/or neon as available,
// so a CI runner without AVX-512 still exercises and validates whatever
// tiers it has — and the output says which. A mismatch fails the run.
// Results are printed as a table and written to BENCH_simd_kernel.json so
// the repo's perf trajectory has machine-readable data points.
//
// Flags:
//   --full     add the 4096² grid point (slower)
//   --smoke    256² only, one reliable reason: CI smoke mode
//   (any --benchmark_min_time=... flag is treated as --smoke, so gbench-
//   style CI invocations work unchanged)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "linalg/simd.h"
#include "linalg/transport_kernel.h"

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

struct OpResult {
  std::string op;
  size_t n = 0;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  double speedup() const { return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0; }
};

/// Times `fn` (already bound to its inputs) as best-of-`reps` wall time.
template <typename Fn>
double BestOfMs(Fn&& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds() * 1e3);
  }
  return best;
}

bool UlpAgree(const linalg::Vector& a, const linalg::Vector& b, size_t n) {
  for (size_t i = 0; i < a.size(); ++i) {
    const double tol =
        4e-16 * static_cast<double>(n) * (std::fabs(b[i]) + 1.0);
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

/// Vector tiers the CPU supports — each is cross-checked against scalar.
std::vector<linalg::simd::Isa> VectorIsas() {
  std::vector<linalg::simd::Isa> out;
  for (linalg::simd::Isa isa : linalg::simd::SupportedIsas()) {
    if (isa != linalg::simd::Isa::kScalar) out.push_back(isa);
  }
  return out;
}

void WriteJson(const std::string& path, const std::vector<OpResult>& results,
               bool checks_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"simd_kernel\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", linalg::simd::ActiveIsaName());
  std::fprintf(f, "  \"cross_checked_isas\": [");
  const auto tiers = VectorIsas();
  for (size_t i = 0; i < tiers.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                 linalg::simd::IsaName(tiers[i]));
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"single_thread\": true,\n");
  std::fprintf(f, "  \"cross_checks_ok\": %s,\n", checks_ok ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const OpResult& r = results[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"n\": %zu, \"scalar_ms\": %.4f, "
                 "\"simd_ms\": %.4f, \"speedup\": %.2f}%s\n",
                 r.op.c_str(), r.n, r.scalar_ms, r.simd_ms, r.speedup(),
                 i + 1 < results.size() ? "," : "");
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

  const linalg::simd::Isa best = linalg::simd::ActiveIsa();
  if (best == linalg::simd::Isa::kScalar) {
    std::printf("# no vector ISA available; comparing scalar vs scalar\n");
  }
  bench::PrintHeader(
      "SIMD kernel primitives: scalar vs runtime-dispatched vector tier",
      "single-thread speedup of the Sinkhorn hot loop; ULP cross-checked");
  std::printf("# vector tier: %s\n", linalg::simd::IsaName(best));

  std::vector<size_t> sizes;
  if (smoke) {
    sizes = {256};
  } else {
    sizes = {256, 512, 1024, 2048};
    if (full) sizes.push_back(4096);
  }

  std::vector<OpResult> results;
  bool checks_ok = true;
  Rng rng(17);

  std::printf("%-16s %-7s %-11s %-11s %-8s\n", "op", "n", "scalar_ms",
              "simd_ms", "speedup");
  for (const size_t n : sizes) {
    const int reps = smoke ? 3 : (n >= 2048 ? 5 : 9);
    const linalg::Matrix cost = RandomCost(n, n, rng);
    const linalg::Vector u = RandomMarginal(n, rng);
    const linalg::Vector v = RandomMarginal(n, rng);
    const linalg::DenseTransportKernel dense(cost.GibbsKernel(0.5),
                                             /*num_threads=*/1);
    // Truncated kernel for the CSR gather path: the 0.032 cutoff at
    // ε=0.5 over U[0,3) costs keeps C ≤ 1.72, i.e. ~57% of entries.
    const linalg::SparseTransportKernel sparse =
        linalg::SparseTransportKernel::FromCost(cost, 0.5, 0.032,
                                                /*num_threads=*/1);
    // f32 storage tier twins: float-held kernel values, double
    // accumulation. Same kept-set as the f64 sparse kernel by contract.
    const linalg::DenseTransportKernelF32 dense_f32 =
        linalg::DenseTransportKernelF32::FromCost(cost, 0.5,
                                                  /*num_threads=*/1);
    const linalg::SparseTransportKernelF32 sparse_f32 =
        linalg::SparseTransportKernelF32::FromCost(cost, 0.5, 0.032,
                                                   /*num_threads=*/1);

    struct Op {
      const char* name;
      std::function<void(linalg::Vector&)> run;
    };
    const std::vector<Op> ops = {
        {"dense_apply", [&](linalg::Vector& y) { dense.Apply(v, y); }},
        {"dense_applyT",
         [&](linalg::Vector& y) { dense.ApplyTranspose(u, y); }},
        {"sparse_apply", [&](linalg::Vector& y) { sparse.Apply(v, y); }},
        {"sparse_applyT",
         [&](linalg::Vector& y) { sparse.ApplyTranspose(u, y); }},
        {"dense_cost",
         [&](linalg::Vector& y) {
           y = linalg::Vector(1, dense.TransportCost(cost, u, v));
         }},
        {"sparse_cost",
         [&](linalg::Vector& y) {
           y = linalg::Vector(1, sparse.TransportCost(cost, u, v));
         }},
        {"dense_apply_f32",
         [&](linalg::Vector& y) { dense_f32.Apply(v, y); }},
        {"dense_applyT_f32",
         [&](linalg::Vector& y) { dense_f32.ApplyTranspose(u, y); }},
        {"sparse_apply_f32",
         [&](linalg::Vector& y) { sparse_f32.Apply(v, y); }},
        {"sparse_applyT_f32",
         [&](linalg::Vector& y) { sparse_f32.ApplyTranspose(u, y); }},
        {"dense_cost_f32",
         [&](linalg::Vector& y) {
           y = linalg::Vector(1, dense_f32.TransportCost(cost, u, v));
         }},
        {"sparse_cost_f32",
         [&](linalg::Vector& y) {
           y = linalg::Vector(1, sparse_f32.TransportCost(cost, u, v));
         }},
    };

    double scalar_iter_ms = 0.0, simd_iter_ms = 0.0;
    for (const Op& op : ops) {
      OpResult r;
      r.op = op.name;
      r.n = n;
      linalg::Vector scalar_out, simd_out;
      linalg::simd::SetIsa(linalg::simd::Isa::kScalar);
      r.scalar_ms = BestOfMs([&] { op.run(scalar_out); }, reps);
      linalg::simd::SetIsa(best);
      r.simd_ms = BestOfMs([&] { op.run(simd_out); }, reps);
      if (!UlpAgree(simd_out, scalar_out, n)) {
        std::printf("!! %s at %zu: scalar/simd mismatch\n", op.name, n);
        checks_ok = false;
      }
      // Validate every other supported vector tier against scalar, so a
      // machine without the widest tier still exercises the ones it has.
      for (linalg::simd::Isa isa : VectorIsas()) {
        if (isa == best) continue;
        linalg::simd::SetIsa(isa);
        linalg::Vector tier_out;
        op.run(tier_out);
        if (!UlpAgree(tier_out, scalar_out, n)) {
          std::printf("!! %s at %zu: scalar/%s mismatch\n", op.name, n,
                      linalg::simd::IsaName(isa));
          checks_ok = false;
        }
        linalg::simd::SetIsa(best);
      }
      if (r.op == "dense_apply" || r.op == "dense_applyT") {
        scalar_iter_ms += r.scalar_ms;
        simd_iter_ms += r.simd_ms;
      }
      std::printf("%-16s %-7zu %-11.3f %-11.3f %-8.2f\n", r.op.c_str(), r.n,
                  r.scalar_ms, r.simd_ms, r.speedup());
      results.push_back(r);
    }
    // The per-Sinkhorn-iteration pair: one Apply + one ApplyTranspose.
    OpResult pair;
    pair.op = "dense_apply+applyT";
    pair.n = n;
    pair.scalar_ms = scalar_iter_ms;
    pair.simd_ms = simd_iter_ms;
    std::printf("%-16s %-7zu %-11.3f %-11.3f %-8.2f\n", pair.op.c_str(), n,
                pair.scalar_ms, pair.simd_ms, pair.speedup());
    results.push_back(pair);
  }

  linalg::simd::SetIsa(best);
  WriteJson("BENCH_simd_kernel.json", results, checks_ok);
  std::printf("# tiers cross-checked vs scalar:");
  for (linalg::simd::Isa isa : VectorIsas()) {
    std::printf(" %s", linalg::simd::IsaName(isa));
  }
  std::printf("\n# cross-checks passed = %s\n", checks_ok ? "yes" : "NO");
  return checks_ok ? 0 : 1;
}
