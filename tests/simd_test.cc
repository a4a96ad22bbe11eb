#include "linalg/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "common/random.h"
#include "linalg/fp_env.h"
#include "linalg/simd_exp.h"
#include "linalg/thread_pool.h"
#include "linalg/transport_kernel.h"
#include "ot/sinkhorn.h"
#include "pool_probe.h"

namespace otclean::linalg::simd {
namespace {

// Sizes chosen to hit every code path of the 4×lanes main loop, the
// single-vector loop, and the scalar tail, for every lane width in play
// (scalar=1, NEON=2, AVX2=4, AVX-512=8): empty, single element, just
// below/at/above each block boundary, and sizes not divisible by any lane
// width.
const size_t kSizes[] = {0,  1,  2,  3,  5,  7,  8,  9,  13, 15, 16,  17,
                         23, 31, 32, 33, 63, 64, 65, 100, 127, 257, 1000};

struct TestData {
  std::vector<double> a, b, c, x;
  std::vector<size_t> idx;          // random in-bounds gather indices
  std::vector<size_t> identity;     // 0..n-1
};

TestData MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  TestData d;
  d.a.resize(n);
  d.b.resize(n);
  d.c.resize(n);
  d.idx.resize(n);
  d.identity.resize(n);
  const size_t domain = std::max<size_t>(1, 2 * n);
  d.x.resize(domain);
  for (double& v : d.a) v = rng.NextDouble() * 2.0 - 0.5;
  for (double& v : d.b) v = rng.NextDouble() * 3.0;
  for (double& v : d.c) v = rng.NextDouble() - 0.5;
  for (double& v : d.x) v = rng.NextDouble() * 2.0;
  for (size_t i = 0; i < n; ++i) {
    d.idx[i] = static_cast<size_t>(
        rng.NextInt(0, static_cast<int64_t>(domain) - 1));
    d.identity[i] = i;
  }
  return d;
}

/// Tolerance for comparing one accumulation order against another: a few
/// ULP per reorder step, scaled by the magnitude of the terms.
double ReduceTol(double magnitude, size_t n) {
  return (static_cast<double>(n) + 8.0) * 4e-16 * std::max(magnitude, 1.0);
}

class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : saved_(ActiveIsa()) { SetIsa(isa); }
  ~ScopedIsa() { SetIsa(saved_); }

 private:
  Isa saved_;
};

std::vector<Isa> VectorIsas() {
  std::vector<Isa> out;
  for (Isa isa : SupportedIsas()) {
    if (isa != Isa::kScalar) out.push_back(isa);
  }
  return out;
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(IsaSupported(Isa::kScalar));
  const auto supported = SupportedIsas();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), Isa::kScalar);
  EXPECT_TRUE(IsaSupported(ActiveIsa()));
  EXPECT_STRNE(ActiveIsaName(), "unknown");
}

TEST(SimdDispatchTest, SetIsaRoundTrips) {
  const Isa original = ActiveIsa();
  for (Isa isa : SupportedIsas()) {
    EXPECT_TRUE(SetIsa(isa));
    EXPECT_EQ(ActiveIsa(), isa);
  }
  EXPECT_TRUE(SetIsa(original));
}

// ------------------------------------------- scalar vs vector agreement --

TEST(SimdUlpTest, ReductionsMatchScalarWithinUlps) {
  for (const size_t n : kSizes) {
    const TestData d = MakeData(n, 42 + n);
    ScopedIsa scoped(Isa::kScalar);
    const double ref_dot = Dot(d.a.data(), d.b.data(), n);
    const double ref_dot3 = Dot3(d.a.data(), d.b.data(), d.c.data(), n);
    const double ref_sum = Sum(d.a.data(), n);
    const double ref_gdot = GatherDot(d.a.data(), d.idx.data(), d.x.data(), n);
    const double ref_gdot3 =
        GatherDot3(d.a.data(), d.b.data(), d.idx.data(), d.x.data(), n);
    for (Isa isa : VectorIsas()) {
      SetIsa(isa);
      const double tol = ReduceTol(3.0 * n, n);
      EXPECT_NEAR(Dot(d.a.data(), d.b.data(), n), ref_dot, tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(Dot3(d.a.data(), d.b.data(), d.c.data(), n), ref_dot3, tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(Sum(d.a.data(), n), ref_sum, tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(GatherDot(d.a.data(), d.idx.data(), d.x.data(), n), ref_gdot,
                  tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(
          GatherDot3(d.a.data(), d.b.data(), d.idx.data(), d.x.data(), n),
          ref_gdot3, tol)
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(SimdExactTest, ElementwisePrimitivesAreBitIdenticalAcrossTiers) {
  // Axpy, AxpyRows, and the Hadamard family perform separately rounded
  // multiplies and adds per element in a fixed order, so every tier must
  // agree bit for bit — the contract the dense/sparse kernel exactness
  // rests on.
  for (const size_t n : kSizes) {
    const TestData d = MakeData(n, 77 + n);
    // AxpyRows over an uneven row count exercises the pairing and the
    // trailing row. 3 rows × n columns, stored contiguously.
    const size_t num_rows = 3;
    std::vector<double> rows(num_rows * n);
    std::vector<double> coeffs{1.7, 0.0, -0.3};
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = 0.01 * (i % 89) - 0.2;
    std::vector<double> ref_axpy(d.c), ref_rows(n, 0.5), ref_had(n),
        ref_shad(n), ref_gshad(n);
    {
      ScopedIsa scoped(Isa::kScalar);
      Axpy(1.7, d.a.data(), ref_axpy.data(), n);
      AxpyRows(coeffs.data(), rows.data(), n, num_rows, ref_rows.data(), n);
      Hadamard(d.a.data(), d.b.data(), ref_had.data(), n);
      ScaledHadamard(2.5, d.a.data(), d.b.data(), ref_shad.data(), n);
      GatherScaledHadamard(2.5, d.a.data(), d.idx.data(), d.x.data(),
                           ref_gshad.data(), n);
    }
    for (Isa isa : VectorIsas()) {
      ScopedIsa scoped(isa);
      std::vector<double> axpy(d.c), out_rows(n, 0.5), had(n), shad(n),
          gshad(n);
      Axpy(1.7, d.a.data(), axpy.data(), n);
      AxpyRows(coeffs.data(), rows.data(), n, num_rows, out_rows.data(), n);
      Hadamard(d.a.data(), d.b.data(), had.data(), n);
      ScaledHadamard(2.5, d.a.data(), d.b.data(), shad.data(), n);
      GatherScaledHadamard(2.5, d.a.data(), d.idx.data(), d.x.data(),
                           gshad.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(axpy[i], ref_axpy[i]) << IsaName(isa) << " i=" << i;
        EXPECT_EQ(out_rows[i], ref_rows[i]) << IsaName(isa) << " i=" << i;
        EXPECT_EQ(had[i], ref_had[i]) << IsaName(isa) << " i=" << i;
        EXPECT_EQ(shad[i], ref_shad[i]) << IsaName(isa) << " i=" << i;
        EXPECT_EQ(gshad[i], ref_gshad[i]) << IsaName(isa) << " i=" << i;
      }
    }
  }
}

TEST(SimdExactTest, AxpyRowsSkipsZeroCoefficientRowsInEveryTier) {
  // A zero-coefficient row is never read, in any tier — so 0·inf can't
  // poison the output and mixed pairs stay bit-identical across tiers.
  const size_t n = 13;
  std::vector<double> rows(2 * n, std::numeric_limits<double>::infinity());
  for (size_t i = n; i < 2 * n; ++i) rows[i] = 0.25 * (i - n);
  const std::vector<double> coeffs{0.0, 2.0};  // inf row masked off
  for (Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    std::vector<double> y(n, 1.0);
    AxpyRows(coeffs.data(), rows.data(), n, coeffs.size(), y.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], 1.0 + 2.0 * (0.25 * i)) << IsaName(isa) << " i=" << i;
    }
  }
}

TEST(SimdExactTest, SequentialGatherMatchesAxpyRowsChain) {
  // GatherDotSequential over a full-support CSC column (ascending row
  // indices) must equal the value AxpyRows accumulates into that column —
  // the dense/sparse ApplyTranspose agreement, distilled.
  for (const size_t m : {1ul, 2ul, 3ul, 7ul, 64ul, 129ul}) {
    const size_t n = 5;  // columns
    std::vector<double> k(m * n), u(m);
    for (size_t i = 0; i < k.size(); ++i) k[i] = 0.3 + 0.001 * (i % 53);
    for (size_t r = 0; r < m; ++r) u[r] = 0.05 + 0.01 * (r % 17);
    // CSC of column j at full support: values k[r*n+j], row indices 0..m-1.
    std::vector<size_t> row_idx(m);
    for (size_t r = 0; r < m; ++r) row_idx[r] = r;
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<double> y(n, 0.0);
      AxpyRows(u.data(), k.data(), n, m, y.data(), n);
      for (size_t j = 0; j < n; ++j) {
        std::vector<double> col(m);
        for (size_t r = 0; r < m; ++r) col[r] = k[r * n + j];
        EXPECT_EQ(GatherDotSequential(col.data(), row_idx.data(), u.data(), m),
                  y[j])
            << IsaName(isa) << " m=" << m << " j=" << j;
      }
    }
  }
}

// ----------------------------------------- contiguous / gather mirroring --

TEST(SimdMirrorTest, GatherWithIdentityIndicesIsBitIdenticalToContiguous) {
  // The determinism contract of simd.h: per ISA, GatherDot over idx=0..n-1
  // IS Dot, bit for bit — this is what keeps cutoff-zero sparse kernels in
  // exact agreement with dense ones.
  for (Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    for (const size_t n : kSizes) {
      const TestData d = MakeData(n, 1234 + n);
      EXPECT_EQ(GatherDot(d.a.data(), d.identity.data(), d.b.data(), n),
                Dot(d.a.data(), d.b.data(), n))
          << IsaName(isa) << " n=" << n;
      EXPECT_EQ(GatherDot3(d.a.data(), d.b.data(), d.identity.data(),
                           d.c.data(), n),
                Dot3(d.a.data(), d.b.data(), d.c.data(), n))
          << IsaName(isa) << " n=" << n;
      std::vector<double> gathered(n), contiguous(n);
      GatherScaledHadamard(1.9, d.a.data(), d.identity.data(), d.b.data(),
                           gathered.data(), n);
      ScaledHadamard(1.9, d.a.data(), d.b.data(), contiguous.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(gathered[i], contiguous[i]) << IsaName(isa) << " i=" << i;
      }
    }
  }
}

TEST(SimdMirrorTest, RepeatedAndPermutedGatherIndices) {
  // Gathers must handle arbitrary index patterns: duplicates, reversals,
  // and single-element rows.
  for (Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    const std::vector<double> x{1.0, 2.0, 4.0, 8.0};
    const std::vector<double> vals{0.5, 0.5, 0.5, 0.5, 0.5};
    const std::vector<size_t> dup{3, 3, 3, 3, 3};
    EXPECT_DOUBLE_EQ(GatherDot(vals.data(), dup.data(), x.data(), 5), 20.0)
        << IsaName(isa);
    const std::vector<size_t> rev{3, 2, 1, 0};
    EXPECT_DOUBLE_EQ(GatherDot(vals.data(), rev.data(), x.data(), 4), 7.5)
        << IsaName(isa);
    const std::vector<size_t> one{2};
    EXPECT_DOUBLE_EQ(GatherDot(vals.data(), one.data(), x.data(), 1), 2.0)
        << IsaName(isa);
    EXPECT_EQ(GatherDot(vals.data(), rev.data(), x.data(), 0), 0.0)
        << IsaName(isa);
  }
}

TEST(SimdMirrorTest, EmptyInputsAreZeroOrNoop) {
  for (Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    EXPECT_EQ(Dot(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(Sum(nullptr, 0), 0.0);
    EXPECT_EQ(GatherDot(nullptr, nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(GatherDotSequential(nullptr, nullptr, nullptr, 0), 0.0);
    double sentinel = 42.0;
    Axpy(2.0, nullptr, &sentinel, 0);
    AxpyRows(nullptr, nullptr, 1, 0, &sentinel, 0);
    EXPECT_EQ(sentinel, 42.0);
  }
}

// ------------------------------------------------------ exact sums check --

TEST(SimdExactTest, IntegerValuedSumsAreExactInEveryTier) {
  // Sums of small integers are exactly representable, so every tier must
  // return the same value regardless of accumulation order.
  std::vector<double> a(1003);
  std::iota(a.begin(), a.end(), 1.0);
  const double expected = 1003.0 * 1004.0 / 2.0;
  std::vector<double> ones(1003, 1.0);
  for (Isa isa : SupportedIsas()) {
    ScopedIsa scoped(isa);
    EXPECT_EQ(Sum(a.data(), a.size()), expected) << IsaName(isa);
    EXPECT_EQ(Dot(a.data(), ones.data(), a.size()), expected) << IsaName(isa);
  }
}

// ------------------------------------------------ relaxed scaling update --

// The update ScalingUpdate replaced, copied verbatim as the test oracle:
// the per-element quotient → std::pow → clamp of the old scalar loop, and
// its separate max-relative-change pass.
double ReferenceScale(double marginal, double denom, double exponent) {
  constexpr double kMax = 1e150;
  double s = denom != 0.0 ? marginal / denom : 0.0;
  if (exponent != 1.0) s = s > 0.0 ? std::pow(s, exponent) : 0.0;
  if (std::isnan(s) || s < 0.0) {
    s = 0.0;
  } else if (s > kMax) {
    s = kMax;
  }
  return s;
}

double ReferenceScalingDelta(const std::vector<double>& a,
                             const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;  // equal scalings, and 0 vs 0
    if (a[i] == 0.0 || b[i] == 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    d = std::max(d, std::fabs(a[i] - b[i]) / b[i]);
  }
  return d;
}

const double kScalingExponents[] = {1.0,    0.5,   0.9,
                                    0.9756, 0.998, 0.99999};

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Marginal/denominator/previous-scaling triples covering every branch of
/// the scaling policy: log-uniform quotients in [1e-300, 1e300] with every
/// third slot a special case, so short lengths see them in vector lanes
/// and in the scalar tail alike.
struct ScalingInputs {
  std::vector<double> marginal, denom, prev;
};

ScalingInputs MakeScalingInputs(size_t n, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();
  // {marginal, denom}
  const double specials[][2] = {
      {0.0, 1.0},        {-0.0, 1.0},       {-2.5, 1.0},
      {kSubnormal, 1.0}, {1e-310, 1.0},     {kMinNormal, 1.0},
      {1e150, 1.0},      {1e300, 1.0},      {kMaxDouble, 1.0},
      {kInf, 1.0},       {kNaN, 1.0},       {0.3, 0.0},
      {0.0, 0.0},        {0.3, -0.0},       {0.0, 0.7},
      {1e-300, 1e10},    {2.0, 1e-320},     {1.0, kNaN},
      {1.0, kInf},       {3.0, -2.0},       {1e300, 1e-300},
  };
  const size_t num_specials = std::size(specials);
  Rng rng(seed);
  ScalingInputs in;
  in.marginal.resize(n);
  in.denom.resize(n);
  in.prev.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 1) {
      const auto& sp = specials[(i / 3 + seed) % num_specials];
      in.marginal[i] = sp[0];
      in.denom[i] = sp[1];
    } else {
      in.marginal[i] = std::exp((rng.NextDouble() * 2.0 - 1.0) * 690.0);
      in.denom[i] = i % 3 == 0 ? 1.0 : 0.5 + rng.NextDouble();
    }
    // Previous scalings: one in six zero, the rest positive
    // (RunScalingUpdate makes some equal to the new ones).
    in.prev[i] = rng.NextInt(0, 5) == 0
                     ? 0.0
                     : std::exp((rng.NextDouble() - 0.5) * 40.0);
  }
  return in;
}

struct ScalingRun {
  std::vector<double> prev, next;
  double residual = 0.0;
};

/// Runs ScalingUpdate on the active tier; every fifth prev entry is first
/// set to the scaling the tier is about to write, so "unchanged" lanes
/// occur.
ScalingRun RunScalingUpdate(const ScalingInputs& in, double exponent) {
  const size_t n = in.marginal.size();
  ScalingRun run;
  run.prev = in.prev;
  run.next.assign(n, -1.0);
  ScalingUpdate(in.marginal.data(), in.denom.data(), exponent,
                in.prev.data(), run.next.data(), n);
  for (size_t i = 0; i < n; i += 5) run.prev[i] = run.next[i];
  run.residual = ScalingUpdate(in.marginal.data(), in.denom.data(), exponent,
                               run.prev.data(), run.next.data(), n);
  return run;
}

void ExpectScalingUpdateBitIdenticalAcrossTiers() {
  for (size_t n : kSizes) {
    for (double e : kScalingExponents) {
      const ScalingInputs in = MakeScalingInputs(n, 11 + n);
      ScalingRun ref;
      {
        ScopedIsa scoped(Isa::kScalar);
        ref = RunScalingUpdate(in, e);
      }
      for (Isa isa : VectorIsas()) {
        ScopedIsa scoped(isa);
        const ScalingRun run = RunScalingUpdate(in, e);
        EXPECT_EQ(Bits(run.residual), Bits(ref.residual))
            << IsaName(isa) << " n=" << n << " e=" << e;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(run.next[i]), Bits(ref.next[i]))
              << IsaName(isa) << " n=" << n << " e=" << e << " i=" << i
              << " marginal=" << in.marginal[i] << " denom=" << in.denom[i];
        }
      }
    }
  }
}

TEST(SimdScalingTest, BitIdenticalAcrossTiers) {
  ExpectScalingUpdateBitIdenticalAcrossTiers();
}

TEST(SimdScalingTest, BitIdenticalAcrossTiersWithSubnormalsFlushed) {
  ScopedFlushSubnormals flush;
  ExpectScalingUpdateBitIdenticalAcrossTiers();
}

TEST(SimdScalingTest, RelaxedPowerIsAccurate) {
  // Quotients e^t for |t| ≤ 690 against std::pow: within 1e-14 relative
  // and 4 ulp for every e ∈ [0.5, 1) — 2 ulp measured, the exp argument
  // being carried in two doubles — and so at the relaxed exponents
  // FastOTClean runs (e = λ/(λ+ε) ≥ 0.998 at λ/ε ≥ 500).
  const size_t n = 20000;
  Rng rng(97);
  std::vector<double> x(n), ones(n, 1.0), prev(n, 1.0), next(n);
  for (double& v : x) v = std::exp((rng.NextDouble() * 2.0 - 1.0) * 690.0);
  for (double e : {0.5, 0.6, 0.75, 0.9, 0.9756, 0.99, 0.998, 0.999,
                   0.99999}) {
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      ScalingUpdate(x.data(), ones.data(), e, prev.data(), next.data(), n);
      double max_rel = 0.0, max_ulp = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double ref = std::min(std::pow(x[i], e), 1e150);
        max_rel = std::max(max_rel, std::fabs(next[i] - ref) / ref);
        const double ulp =
            std::nextafter(ref, std::numeric_limits<double>::infinity()) -
            ref;
        if (ref < 1e150) {
          max_ulp = std::max(max_ulp, std::fabs(next[i] - ref) / ulp);
        }
      }
      EXPECT_LE(max_rel, 1e-14) << IsaName(isa) << " e=" << e;
      EXPECT_LE(max_ulp, 4.0) << IsaName(isa) << " e=" << e;
    }
  }
}

TEST(SimdScalingTest, UnitExponentIsQuotientAndClampExactly) {
  for (size_t n : kSizes) {
    const ScalingInputs in = MakeScalingInputs(n, 3 + n);
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<double> next(n);
      ScalingUpdate(in.marginal.data(), in.denom.data(), 1.0, in.prev.data(),
                    next.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(next[i]),
                  Bits(ReferenceScale(in.marginal[i], in.denom[i], 1.0)))
            << IsaName(isa) << " marginal=" << in.marginal[i]
            << " denom=" << in.denom[i];
      }
    }
  }
}

TEST(SimdScalingTest, RelaxedExponentKeepsTheScalingPolicy) {
  // The new power follows the old policy branch for branch — the same
  // zeros, the same ceiling, finite elsewhere — except that a subnormal
  // quotient gives 0 at e < 1 (at e = 1 it is the quotient, as before).
  const ScalingInputs in = MakeScalingInputs(300, 5);
  for (double e : kScalingExponents) {
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<double> next(in.marginal.size());
      ScalingUpdate(in.marginal.data(), in.denom.data(), e, in.prev.data(),
                    next.data(), next.size());
      for (size_t i = 0; i < next.size(); ++i) {
        const double q = in.denom[i] != 0.0 ? in.marginal[i] / in.denom[i]
                                            : 0.0;
        if (e != 1.0 && q > 0.0 && q < std::numeric_limits<double>::min()) {
          EXPECT_EQ(Bits(next[i]), Bits(0.0)) << IsaName(isa) << " q=" << q;
          continue;
        }
        const double ref = ReferenceScale(in.marginal[i], in.denom[i], e);
        if (ref == 0.0 || ref == 1e150) {
          EXPECT_EQ(next[i], ref) << IsaName(isa) << " e=" << e << " q=" << q;
        } else {
          EXPECT_NEAR(next[i], ref, 1e-14 * ref)
              << IsaName(isa) << " e=" << e << " q=" << q;
        }
      }
    }
  }
}

TEST(SimdScalingTest, ResidualIsTheOldScalingDelta) {
  for (size_t n : kSizes) {
    for (double e : kScalingExponents) {
      const ScalingInputs in = MakeScalingInputs(n, 29 + n);
      for (Isa isa : SupportedIsas()) {
        ScopedIsa scoped(isa);
        const ScalingRun run = RunScalingUpdate(in, e);
        EXPECT_EQ(Bits(run.residual),
                  Bits(ReferenceScalingDelta(run.next, run.prev)))
            << IsaName(isa) << " n=" << n << " e=" << e;
      }
    }
  }
  // NaN and negative previous scalings: ignored unless a side is zero.
  const std::vector<double> marginal = {1.0, 2.0, 0.0, 4.0};
  const std::vector<double> denom(4, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& prev :
       {std::vector<double>{nan, 1.0, nan, -3.0},
        std::vector<double>{1.0, -1.0, 0.0, nan}}) {
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      std::vector<double> next(4);
      const double res = ScalingUpdate(marginal.data(), denom.data(), 0.9,
                                       prev.data(), next.data(), 4);
      EXPECT_EQ(Bits(res), Bits(ReferenceScalingDelta(next, prev)))
          << IsaName(isa);
    }
  }
}

TEST(SimdScalingTest, SubnormalQuotientsGiveZeroInEveryMode) {
  const std::vector<double> marginal = {
      std::numeric_limits<double>::denorm_min(), 1e-310, 1e-300, 2e-308};
  const std::vector<double> denom = {1.0, 1.0, 1e10, 1.0};
  const std::vector<double> prev(4, 1.0);
  for (bool flush : {false, true}) {
    std::optional<ScopedFlushSubnormals> scope;
    if (flush) scope.emplace();
    for (Isa isa : SupportedIsas()) {
      ScopedIsa scoped(isa);
      for (double e : {0.5, 0.998}) {
        std::vector<double> next(4, -1.0);
        ScalingUpdate(marginal.data(), denom.data(), e, prev.data(),
                      next.data(), 4);
        for (size_t i = 0; i < 4; ++i) {
          EXPECT_EQ(Bits(next[i]), Bits(0.0))
              << IsaName(isa) << " flush=" << flush << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdScalingTest, PolyLogMatchesStdLog) {
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp((rng.NextDouble() * 2.0 - 1.0) * 700.0);
    double hi, lo, k, m;
    PolyLog(x, hi, lo, k, m);
    const double ref = std::log(x);
    EXPECT_NEAR(hi + lo, ref, 2.3e-16 * std::max(std::fabs(ref), 1e-300))
        << "x=" << x;
    EXPECT_EQ(std::ldexp(m, static_cast<int>(k)), x);
  }
}

// ------------------------------------------------------------- f32 tier --

TEST(SimdF32Test, F32LaneRecipesMatchScalarWithinUlps) {
  // The float-storage reductions widen every lane to double before it
  // enters an accumulator, so they obey the same ULP envelope as the f64
  // recipes — per tier, against the scalar reference.
  for (const size_t n : kSizes) {
    const TestData d = MakeData(n, 91 + n);
    std::vector<float> kf(n);
    for (size_t i = 0; i < n; ++i) kf[i] = static_cast<float>(d.b[i]);
    ScopedIsa scoped(Isa::kScalar);
    const double ref_dot = Dot(kf.data(), d.a.data(), n);
    const double ref_dot3 = Dot3(d.a.data(), kf.data(), d.c.data(), n);
    const double ref_gdot =
        GatherDot(kf.data(), d.idx.data(), d.x.data(), n);
    const double ref_gdot3 =
        GatherDot3(d.a.data(), kf.data(), d.idx.data(), d.x.data(), n);
    for (Isa isa : VectorIsas()) {
      SetIsa(isa);
      const double tol = ReduceTol(3.0 * n, n);
      EXPECT_NEAR(Dot(kf.data(), d.a.data(), n), ref_dot, tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(Dot3(d.a.data(), kf.data(), d.c.data(), n), ref_dot3,
                  tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(GatherDot(kf.data(), d.idx.data(), d.x.data(), n),
                  ref_gdot, tol)
          << IsaName(isa) << " n=" << n;
      EXPECT_NEAR(
          GatherDot3(d.a.data(), kf.data(), d.idx.data(), d.x.data(), n),
          ref_gdot3, tol)
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(SimdF32Test, F32ElementwiseRecipesAreBitIdenticalAcrossTiers) {
  // Elementwise f32 recipes have no reduction-order freedom: each output
  // element is the same widen-multiply sequence in every tier.
  for (const size_t n : kSizes) {
    const TestData d = MakeData(n, 17 + n);
    std::vector<float> kf(n);
    for (size_t i = 0; i < n; ++i) kf[i] = static_cast<float>(d.b[i]);
    std::vector<double> ref(n), out(n);
    {
      ScopedIsa scoped(Isa::kScalar);
      ScaledHadamard(1.7, kf.data(), d.a.data(), ref.data(), n);
    }
    for (Isa isa : VectorIsas()) {
      ScopedIsa scoped(isa);
      ScaledHadamard(1.7, kf.data(), d.a.data(), out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], ref[i]) << IsaName(isa) << " n=" << n << " i=" << i;
      }
    }
  }
}

namespace {

struct SolveProblem {
  Matrix cost;
  Vector p, q;

  explicit SolveProblem(size_t n = 24) : cost(n, n), p(n), q(n) {
    Rng rng(5);
    for (double& c : cost.data()) c = rng.NextDouble();
    for (size_t i = 0; i < n; ++i) {
      p[i] = 0.2 + rng.NextDouble();
      q[i] = 0.2 + rng.NextDouble();
    }
    p.Normalize();
    q.Normalize();
  }
};

struct SolveOut {
  std::vector<double> u, v;
  size_t iterations = 0;
};

}  // namespace

TEST(SimdF32Test, F32SolveBitIdenticalAcrossThreadCountsAndPools) {
  // The per-(tier, precision) determinism contract, f32 edition: serial,
  // spawned-pool, and shared-pool solves agree bit for bit, on the dense
  // and truncated-sparse paths, linear and log domain. At 900×900 the
  // dense kernel (810k nnz) and its 1e-4 truncation (~600k) both split
  // across the pool; the probe below checks that they did.
  const SolveProblem prob(900);
  ot::SinkhornOptions base;
  base.epsilon = 0.08;
  base.tolerance = 1e-10;
  // Bit-identity needs no convergence; a few dozen iterations at this size
  // exercise every pass without a minutes-long log-domain solve.
  base.max_iterations = 30;
  base.precision = Precision::kFloat32;

  for (const bool log_domain : {false, true}) {
    for (const bool sparse : {false, true}) {
      auto run = [&](size_t threads, ThreadPool* pool) {
        ot::SinkhornOptions o = base;
        o.log_domain = log_domain;
        o.num_threads = threads;
        o.thread_pool = pool;
        SolveOut out;
        if (sparse) {
          o.relaxed = true;  // truncation under-serves columns legitimately
          auto r = ot::RunSinkhornSparse(prob.cost, prob.p, prob.q, o,
                                         /*kernel_cutoff=*/1e-4);
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          if (r.ok()) out = {r->u.data(), r->v.data(), r->iterations};
        } else {
          auto r = ot::RunSinkhorn(prob.cost, prob.p, prob.q, o);
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          if (r.ok()) out = {r->u.data(), r->v.data(), r->iterations};
        }
        return out;
      };
      ThreadPool pool(4);
      const SolveOut serial = run(1, nullptr);
      testing::WorkerChunkProbe probe;
      const SolveOut spawned = run(4, nullptr);
      const size_t spawned_chunks = probe.pooled_chunks();
      const SolveOut pooled = run(4, &pool);
      // ≥ 2 chunks per pass, 2 passes per iteration, on both pools.
      EXPECT_GE(spawned_chunks, 4 * spawned.iterations)
          << "log=" << log_domain << " sparse=" << sparse;
      EXPECT_GE(probe.pooled_chunks() - spawned_chunks, 4 * pooled.iterations)
          << "log=" << log_domain << " sparse=" << sparse;
      EXPECT_GT(probe.worker_chunks(), 0u)
          << "log=" << log_domain << " sparse=" << sparse;
      EXPECT_EQ(serial.iterations, spawned.iterations)
          << "log=" << log_domain << " sparse=" << sparse;
      EXPECT_TRUE(serial.u == spawned.u && serial.v == spawned.v)
          << "spawned pool diverges: log=" << log_domain
          << " sparse=" << sparse;
      EXPECT_TRUE(serial.u == pooled.u && serial.v == pooled.v)
          << "shared pool diverges: log=" << log_domain
          << " sparse=" << sparse;
    }
  }
}

TEST(SimdF32Test, F32PlanAgreesWithF64WithinKernelRounding) {
  // The accuracy envelope of the f32 tier: kernel entries carry ≤ 2⁻²⁴
  // relative rounding, so plans and costs track the f64 tier to ~1e-5 —
  // close enough for repair decisions, far outside the bit-identity
  // contract (which holds only within a precision).
  const SolveProblem prob;
  ot::SinkhornOptions f64;
  f64.epsilon = 0.08;
  f64.tolerance = 1e-10;
  f64.num_threads = 1;
  ot::SinkhornOptions f32 = f64;
  f32.precision = Precision::kFloat32;

  const auto rd = ot::RunSinkhorn(prob.cost, prob.p, prob.q, f64).value();
  const auto rf = ot::RunSinkhorn(prob.cost, prob.p, prob.q, f32).value();
  EXPECT_TRUE(rd.converged);
  EXPECT_TRUE(rf.converged);
  EXPECT_NEAR(rf.transport_cost, rd.transport_cost,
              1e-5 * (1.0 + std::fabs(rd.transport_cost)));
  double max_diff = 0.0;
  for (size_t i = 0; i < rd.plan.data().size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(rd.plan.data()[i] - rf.plan.data()[i]));
  }
  EXPECT_LT(max_diff, 1e-5);

  // Truncated path: f32 and f64 share the kept-set by contract (the
  // cutoff decision is made in double), so the sparse plans align
  // entry-for-entry.
  ot::SinkhornOptions sf64 = f64;
  sf64.relaxed = true;
  ot::SinkhornOptions sf32 = f32;
  sf32.relaxed = true;
  const auto sd =
      ot::RunSinkhornSparse(prob.cost, prob.p, prob.q, sf64, 1e-4).value();
  const auto sf =
      ot::RunSinkhornSparse(prob.cost, prob.p, prob.q, sf32, 1e-4).value();
  ASSERT_EQ(sd.plan.values().size(), sf.plan.values().size());
  double sparse_diff = 0.0;
  for (size_t i = 0; i < sd.plan.values().size(); ++i) {
    sparse_diff = std::max(
        sparse_diff, std::fabs(sd.plan.values()[i] - sf.plan.values()[i]));
  }
  EXPECT_LT(sparse_diff, 1e-5);
}

}  // namespace
}  // namespace otclean::linalg::simd
