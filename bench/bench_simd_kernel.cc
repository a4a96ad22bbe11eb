// Scalar-vs-SIMD bench for the TransportKernel primitives: dense Apply /
// ApplyTranspose, sparse (CSR gather) Apply, ScaleToPlan, and the
// TransportCost reduction, at 256²–4096², single thread. It also times the
// relaxed Sinkhorn half-update (simd::ScalingUpdate) in ns per element
// against the std::pow loop it replaced, and checks that every tier
// writes bit-identical scalings and residuals.
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
#include <limits>
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

/// One relaxed-update timing: ns per element of the std::pow loop the
/// primitive replaced, of the scalar tier and of the widest tier.
struct ScalingResult {
  size_t n = 0;
  double exponent = 1.0;
  double std_pow_ns = 0.0;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
};

/// The half-update ScalingUpdate replaced: quotient, std::pow and clamp
/// per element, then a separate max-relative-change pass.
double StdPowScalingUpdate(const double* marginal, const double* denom,
                           double exponent, const double* prev, double* next,
                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double s = denom[i] != 0.0 ? marginal[i] / denom[i] : 0.0;
    if (exponent != 1.0) s = s > 0.0 ? std::pow(s, exponent) : 0.0;
    if (std::isnan(s) || s < 0.0) {
      s = 0.0;
    } else if (s > linalg::simd::kScalingCeiling) {
      s = linalg::simd::kScalingCeiling;
    }
    next[i] = s;
  }
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (next[i] == prev[i]) continue;
    if (next[i] == 0.0 || prev[i] == 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    d = std::max(d, std::fabs(next[i] - prev[i]) / prev[i]);
  }
  return d;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Times the relaxed update at length n and exponent e (best of `reps`
/// blocks of `calls` updates) and cross-checks every vector tier's
/// scalings and residual bit for bit against the scalar tier.
ScalingResult BenchScalingUpdate(size_t n, double e, int reps, Rng& rng,
                                 bool& checks_ok) {
  std::vector<double> marginal(n), denom(n), prev(n), next(n), ref(n);
  for (size_t i = 0; i < n; ++i) {
    marginal[i] = (0.05 + rng.NextDouble()) / static_cast<double>(n);
    denom[i] = std::exp((rng.NextDouble() - 0.5) * 20.0) / static_cast<double>(n);
    prev[i] = std::exp((rng.NextDouble() - 0.5) * 20.0);
  }
  const int calls = static_cast<int>(std::max<size_t>(1, (1u << 18) / n));
  double sink = 0.0;
  auto time_ns = [&](auto&& update) {
    const double ms = BestOfMs(
        [&] {
          for (int c = 0; c < calls; ++c) {
            sink += update(marginal.data(), denom.data(), e, prev.data(),
                           next.data(), n);
          }
        },
        reps);
    return ms * 1e6 / (static_cast<double>(calls) * static_cast<double>(n));
  };
  const linalg::simd::Isa best = linalg::simd::ActiveIsa();
  ScalingResult r;
  r.n = n;
  r.exponent = e;
  r.std_pow_ns = time_ns(StdPowScalingUpdate);
  linalg::simd::SetIsa(linalg::simd::Isa::kScalar);
  r.scalar_ns = time_ns(linalg::simd::ScalingUpdate);
  const double ref_res = linalg::simd::ScalingUpdate(
      marginal.data(), denom.data(), e, prev.data(), ref.data(), n);
  linalg::simd::SetIsa(best);
  r.simd_ns = time_ns(linalg::simd::ScalingUpdate);
  for (linalg::simd::Isa isa : VectorIsas()) {
    linalg::simd::SetIsa(isa);
    const double res = linalg::simd::ScalingUpdate(
        marginal.data(), denom.data(), e, prev.data(), next.data(), n);
    bool same = SameBits(res, ref_res);
    for (size_t i = 0; i < n && same; ++i) same = SameBits(next[i], ref[i]);
    if (!same) {
      std::printf("!! scaling_update at %zu, e=%g: scalar/%s bits differ\n",
                  n, e, linalg::simd::IsaName(isa));
      checks_ok = false;
    }
  }
  linalg::simd::SetIsa(best);
  if (sink == -1.0) std::printf("#\n");  // keep the timed calls observable
  return r;
}

void WriteJson(const std::string& path, const std::vector<OpResult>& results,
               const std::vector<ScalingResult>& scaling, bool checks_ok) {
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
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scaling_update\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingResult& r = scaling[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"exponent\": %.6g, "
                 "\"std_pow_ns_per_elem\": %.3f, "
                 "\"scalar_ns_per_elem\": %.3f, "
                 "\"simd_ns_per_elem\": %.3f}%s\n",
                 r.n, r.exponent, r.std_pow_ns, r.scalar_ns, r.simd_ns,
                 i + 1 < scaling.size() ? "," : "");
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

  // The relaxed Sinkhorn half-update: e = 50/50.1 is FastOTClean's default
  // λ/(λ+ε); e = 1 is hard-marginal Sinkhorn (quotient and clamp only).
  std::vector<ScalingResult> scaling;
  std::printf("\n%-9s %-9s %-13s %-13s %-13s\n", "n", "exponent",
              "std_pow_ns", "scalar_ns", "simd_ns");
  for (const size_t n : smoke ? std::vector<size_t>{1000}
                              : std::vector<size_t>{1000, 16384}) {
    for (const double e : {50.0 / 50.1, 1.0}) {
      const ScalingResult r =
          BenchScalingUpdate(n, e, smoke ? 3 : 9, rng, checks_ok);
      std::printf("%-9zu %-9.6g %-13.3f %-13.3f %-13.3f\n", r.n, r.exponent,
                  r.std_pow_ns, r.scalar_ns, r.simd_ns);
      scaling.push_back(r);
    }
  }

  linalg::simd::SetIsa(best);
  WriteJson("BENCH_simd_kernel.json", results, scaling, checks_ok);
  std::printf("# tiers cross-checked vs scalar:");
  for (linalg::simd::Isa isa : VectorIsas()) {
    std::printf(" %s", linalg::simd::IsaName(isa));
  }
  std::printf("\n# cross-checks passed = %s\n", checks_ok ? "yes" : "NO");
  return checks_ok ? 0 : 1;
}
