// Golden pin of every transport-kernel tier: dense/CSR × linear/log ×
// f64/f32. On the portable scalar SIMD tier, one fixed Sinkhorn problem and
// one fixed FastOTClean repair per tier must reproduce exact iteration
// counts and the exact bits of the potentials, the plan values and the
// transport cost. Any change to the kernel code that alters a single
// rounding in any tier fails here. The FastOTClean outer loop is pinned
// the same way on its other paths: a two-constraint FastOtCleanMulti
// repair, the iterative-NMF projection, and a repeat repair seeded from
// the solve cache's warm-start store.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "core/fast_otclean.h"
#include "core/solve_cache.h"
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
  opts.epsilon_schedule.initial_epsilon = 0.2;
  opts.epsilon_schedule.stage_max_iterations = 40;
  BitHash h;
  size_t iterations = 0;
  std::vector<ot::EpsilonAnnealStage> stages;
  if (tier.sparse) {
    const auto r = ot::RunSinkhornSparse(cost, p, q, opts, 1e-4).value();
    h.Add(r.u);
    h.Add(r.v);
    h.Add(r.plan.values());
    h.Add(r.transport_cost);
    iterations = r.iterations;
    stages = r.anneal_stages;
  } else {
    const auto r = ot::RunSinkhorn(cost, p, q, opts).value();
    h.Add(r.u);
    h.Add(r.v);
    h.Add(r.plan.data());
    h.Add(r.transport_cost);
    iterations = r.iterations;
    stages = r.anneal_stages;
  }
  for (const ot::EpsilonAnnealStage& s : stages) {
    h.Add(s.epsilon);
    h.Add(static_cast<double>(s.iterations));
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
  opts.epsilon_schedule.initial_epsilon = 0.4;
  opts.epsilon_schedule.stage_max_iterations = 30;
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
  for (const ot::EpsilonAnnealStage& s : r.anneal_stages) {
    h.Add(static_cast<double>(s.iterations));
  }
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

Golden IterativeNmfGolden(const Tier& tier) {
  const prob::JointDistribution data =
      FixedData(prob::Domain::FromCardinalities({3, 2, 4}));
  const prob::CiSpec ci{{0}, {1}, {2}};
  const ot::EuclideanCost cost(3);
  core::FastOtCleanOptions opts = FixedFastOptions(tier);
  opts.iterative_nmf = true;
  opts.nmf_max_iterations = 50;
  Rng solve_rng(17);
  return HashRepair(
      core::FastOtClean(data, ci, cost, opts, solve_rng).value());
}

/// The second of two identical repairs under one SolveCache with the
/// warm-start store on: it is seeded from the first run's converged
/// potentials (so it skips ε-annealing) and credits the saved iterations.
Golden CacheWarmGolden(const Tier& tier) {
  const prob::JointDistribution data =
      FixedData(prob::Domain::FromCardinalities({3, 2, 4}));
  const prob::CiSpec ci{{0}, {1}, {2}};
  const ot::EuclideanCost cost(3);
  core::SolveCache cache;
  core::FastOtCleanOptions opts = FixedFastOptions(tier);
  opts.max_outer_iterations = 80;
  opts.outer_tolerance = 1e-7;
  opts.solve_cache = &cache;
  opts.cache_warm_start = true;
  opts.max_sinkhorn_iterations = 3000;
  Rng first_rng(19);
  const auto first = core::FastOtClean(data, ci, cost, opts, first_rng).value();
  EXPECT_TRUE(first.converged) << tier.name;
  EXPECT_FALSE(first.cache_warm_started) << tier.name;
  Rng second_rng(19);
  const auto r = core::FastOtClean(data, ci, cost, opts, second_rng).value();
  EXPECT_TRUE(r.cache_warm_started) << tier.name;
  EXPECT_GT(r.cache_warm_iterations_saved, 0u) << tier.name;
  const Golden g = HashRepair(r);
  BitHash h;
  h.Add(static_cast<double>(g.bits));
  h.Add(static_cast<double>(r.cache_warm_iterations_saved));
  return {g.iterations, h.value()};
}

// Recorded on the scalar tier; one entry per kTiers row, same order.
constexpr Golden kSinkhornGolden[] = {
    {312, 0x9dc371b22d8067ebull}, {232, 0x7e5cb2e61a44b77full},
    {325, 0x8615c08166d224dfull}, {244, 0x19253af1555a2c47ull},
    {310, 0x5d6a577e0b2d98b9ull}, {232, 0xa8325be834eb998bull},
    {329, 0x2db1be7279990a9eull}, {244, 0x8d2764a5b70b9cb6ull},
};
constexpr Golden kFastOtCleanGolden[] = {
    {3577, 0x298b9452d80e8c22ull}, {2788, 0xe498c44f618a73d1ull},
    {3577, 0x51ffee110372038dull}, {2788, 0x738fd85b09eea663ull},
    {3577, 0xfcde4241d73d7822ull}, {2788, 0x8b9eae34eb6dd132ull},
    {3577, 0xa96b6f9b094043f0ull}, {2788, 0x886f4910b54a3edcull},
};

// The outer-loop paths, each on the dense f64 tiers: linear, then log.
constexpr Tier kOuterLoopTiers[] = {kTiers[0], kTiers[1]};
constexpr Golden kFastOtCleanMultiGolden[] = {
    {3600, 0x39b1f770d6bde919ull}, {2580, 0x99b7ced35fe42284ull},
};
constexpr Golden kIterativeNmfGolden = {3577, 0xf04d5dc37e5c11b0ull};
constexpr Golden kCacheWarmGolden[] = {
    {16130, 0x8d13972adcdd01afull}, {9007, 0x34817d5d559200aeull},
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

TEST(KernelGoldenTest, FastOtCleanIterativeNmfBitExact) {
  ScalarIsa scalar;
  ExpectGolden(IterativeNmfGolden(kTiers[0]), kIterativeNmfGolden,
               kTiers[0].name);
}

TEST(KernelGoldenTest, FastOtCleanCacheWarmStartBitExact) {
  ScalarIsa scalar;
  for (size_t t = 0; t < std::size(kOuterLoopTiers); ++t) {
    ExpectGolden(CacheWarmGolden(kOuterLoopTiers[t]), kCacheWarmGolden[t],
                 kOuterLoopTiers[t].name);
  }
}

}  // namespace
}  // namespace otclean
