// Golden pin of every transport-kernel tier: dense/CSR × linear/log ×
// f64/f32. On the portable scalar SIMD tier, one fixed Sinkhorn problem and
// one fixed FastOTClean repair per tier must reproduce exact iteration
// counts and the exact bits of the potentials, the plan values and the
// transport cost. Any change to the kernel code that alters a single
// rounding in any tier fails here. The FastOTClean outer loop is pinned
// the same way on its multi-constraint path: a two-constraint
// FastOtCleanMulti repair.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "core/fast_otclean.h"
#include "linalg/matrix.h"
#include "linalg/precision.h"
#include "linalg/simd.h"
#include "linalg/vector.h"
#include "ot/cost.h"
#include "ot/sinkhorn.h"
#include "prob/independence.h"

namespace otclean {
namespace {

using linalg::Precision;

/// FNV-1a over the bit patterns of a sequence of doubles.
class BitHash {
 public:
  void Add(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h_ ^= (bits >> (8 * b)) & 0xFFu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::vector<double>& xs) {
    for (double x : xs) Add(x);
  }
  void Add(const linalg::Vector& xs) {
    for (size_t i = 0; i < xs.size(); ++i) Add(xs[i]);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Tier {
  const char* name;
  bool sparse;
  bool log_domain;
  Precision precision;
};

constexpr Tier kTiers[] = {
    {"dense-linear-f64", false, false, Precision::kFloat64},
    {"dense-log-f64", false, true, Precision::kFloat64},
    {"csr-linear-f64", true, false, Precision::kFloat64},
    {"csr-log-f64", true, true, Precision::kFloat64},
    {"dense-linear-f32", false, false, Precision::kFloat32},
    {"dense-log-f32", false, true, Precision::kFloat32},
    {"csr-linear-f32", true, false, Precision::kFloat32},
    {"csr-log-f32", true, true, Precision::kFloat32},
};

struct Golden {
  size_t iterations;
  uint64_t bits;
};

/// Forces the scalar tier for the test's duration.
class ScalarIsa {
 public:
  ScalarIsa() : saved_(linalg::simd::ActiveIsa()) {
    linalg::simd::SetIsa(linalg::simd::Isa::kScalar);
  }
  ~ScalarIsa() { linalg::simd::SetIsa(saved_); }

 private:
  linalg::simd::Isa saved_;
};

linalg::Matrix FixedCost() {
  const size_t m = 9, n = 11;
  linalg::Matrix cost(m, n);
  Rng rng(20240613);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(i) / (m - 1) -
                       static_cast<double>(j) / (n - 1);
      cost(i, j) = d * d + 0.05 * rng.NextDouble();
    }
  }
  return cost;
}

linalg::Vector FixedMarginal(size_t n, uint64_t seed) {
  linalg::Vector v(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) v[i] = 0.1 + rng.NextDouble();
  v.Normalize();
  return v;
}

Golden SinkhornGolden(const Tier& tier) {
  const linalg::Matrix cost = FixedCost();
  const linalg::Vector p = FixedMarginal(cost.rows(), 3);
  const linalg::Vector q = FixedMarginal(cost.cols(), 5);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.02;
  opts.max_iterations = 400;
  opts.tolerance = 1e-12;
  opts.num_threads = 1;
  opts.log_domain = tier.log_domain;
  opts.precision = tier.precision;
  BitHash h;
  size_t iterations = 0;
  if (tier.sparse) {
    const auto r = ot::RunSinkhornSparse(cost, p, q, opts, 1e-4).value();
    h.Add(r.u);
    h.Add(r.v);
    h.Add(r.plan.values());
    h.Add(r.transport_cost);
    iterations = r.iterations;
  } else {
    const auto r = ot::RunSinkhorn(cost, p, q, opts).value();
    h.Add(r.u);
    h.Add(r.v);
    h.Add(r.plan.data());
    h.Add(r.transport_cost);
    iterations = r.iterations;
  }
  return {iterations, h.value()};
}

prob::JointDistribution FixedData(const prob::Domain& dom) {
  prob::JointDistribution data(dom);
  Rng rng(77);
  for (size_t i = 0; i < data.size(); ++i) data[i] = 0.02 + rng.NextDouble();
  data.Normalize();
  return data;
}

core::FastOtCleanOptions FixedFastOptions(const Tier& tier) {
  core::FastOtCleanOptions opts;
  opts.epsilon = 0.05;
  opts.lambda = 2.0;
  opts.sinkhorn_tolerance = 1e-7;
  opts.max_outer_iterations = 12;
  opts.max_sinkhorn_iterations = 300;
  opts.num_threads = 1;
  opts.kernel_truncation = tier.sparse ? 1e-25 : 0.0;
  opts.log_domain = tier.log_domain;
  opts.precision = tier.precision;
  return opts;
}

/// Everything a repair reports, hashed; the Sinkhorn total is returned
/// alongside.
Golden HashRepair(const core::FastOtCleanResult& r) {
  BitHash h;
  h.Add(r.plan.Densify().data());
  h.Add(r.transport_cost);
  h.Add(r.target_cmi);
  h.Add(r.objective_trace);
  h.Add(static_cast<double>(r.outer_iterations));
  return {r.total_sinkhorn_iterations, h.value()};
}

Golden FastOtCleanGolden(const Tier& tier) {
  const prob::JointDistribution data =
      FixedData(prob::Domain::FromCardinalities({3, 2, 4}));
  const prob::CiSpec ci{{0}, {1}, {2}};
  const ot::EuclideanCost cost(3);
  Rng solve_rng(11);
  return HashRepair(
      core::FastOtClean(data, ci, cost, FixedFastOptions(tier), solve_rng)
          .value());
}

/// Two constraints at once: X ⊥ Y | Z and X ⊥ W | Z.
Golden FastOtCleanMultiGolden(const Tier& tier) {
  const prob::JointDistribution data =
      FixedData(prob::Domain::FromCardinalities({3, 2, 4, 2}));
  const std::vector<prob::CiSpec> cis = {{{0}, {1}, {2}}, {{0}, {3}, {2}}};
  const ot::EuclideanCost cost(4);
  Rng solve_rng(13);
  return HashRepair(
      core::FastOtCleanMulti(data, cis, cost, FixedFastOptions(tier),
                             solve_rng)
          .value());
}

// Recorded on the scalar tier; one entry per kTiers row, same order.
constexpr Golden kSinkhornGolden[] = {
    {276, 0x85a67470a1b06c90ull}, {276, 0xcb08201ffd36330eull},
    {287, 0x080d3358e563332aull}, {287, 0xc70ca425cf2044deull},
    {276, 0xf5a163d2f84ef47cull}, {276, 0xb3b6c0281e1eff6dull},
    {287, 0xc4a4eabdcfa4effcull}, {287, 0xbfab81d5580d0289ull},
};
constexpr Golden kFastOtCleanGolden[] = {
    {2799, 0xa511a4b358ef6ac5ull}, {2799, 0xe238d7784ea5c0a7ull},
    {2799, 0xa70069bac280b33eull}, {2799, 0xea9b105fa8f28b25ull},
    {2799, 0xe87d3ad03b5b205aull}, {2799, 0x7bc8da77750f4183ull},
    {2799, 0x604d6e9e80dfef63ull}, {2799, 0x7533016c7a94d7e4ull},
};

// The multi-constraint path, on the dense f64 tiers: linear, then log.
constexpr Tier kOuterLoopTiers[] = {kTiers[0], kTiers[1]};
constexpr Golden kFastOtCleanMultiGolden[] = {
    {2590, 0x670137500f14f469ull}, {2590, 0x990aeef9d89468e9ull},
};

void ExpectGolden(const Golden& got, const Golden& want, const char* name) {
  EXPECT_EQ(got.iterations, want.iterations) << name;
  EXPECT_EQ(got.bits, want.bits) << name << " {" << got.iterations << ", 0x"
                                 << std::hex << got.bits << "ull}";
}

TEST(KernelGoldenTest, SinkhornEveryTierBitExact) {
  ScalarIsa scalar;
  for (size_t t = 0; t < std::size(kTiers); ++t) {
    const Golden got = SinkhornGolden(kTiers[t]);
    EXPECT_EQ(got.iterations, kSinkhornGolden[t].iterations) << kTiers[t].name;
    EXPECT_EQ(got.bits, kSinkhornGolden[t].bits)
        << kTiers[t].name << " {" << got.iterations << ", 0x" << std::hex
        << got.bits << "ull}";
  }
}

TEST(KernelGoldenTest, FastOtCleanEveryTierBitExact) {
  ScalarIsa scalar;
  for (size_t t = 0; t < std::size(kTiers); ++t) {
    const Golden got = FastOtCleanGolden(kTiers[t]);
    EXPECT_EQ(got.iterations, kFastOtCleanGolden[t].iterations)
        << kTiers[t].name;
    EXPECT_EQ(got.bits, kFastOtCleanGolden[t].bits)
        << kTiers[t].name << " {" << got.iterations << ", 0x" << std::hex
        << got.bits << "ull}";
  }
}

TEST(KernelGoldenTest, FastOtCleanMultiTwoSpecsBitExact) {
  ScalarIsa scalar;
  for (size_t t = 0; t < std::size(kOuterLoopTiers); ++t) {
    ExpectGolden(FastOtCleanMultiGolden(kOuterLoopTiers[t]),
                 kFastOtCleanMultiGolden[t], kOuterLoopTiers[t].name);
  }
}

}  // namespace
}  // namespace otclean
