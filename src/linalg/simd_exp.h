#ifndef OTCLEAN_LINALG_SIMD_EXP_H_
#define OTCLEAN_LINALG_SIMD_EXP_H_
// otclean-lint: internal-header — implementation detail of the SIMD layer,
// included only by its ISA translation units; deliberately NOT exported
// through the umbrella header.

// The ONE exponential (and the one logarithm) every SIMD tier evaluates —
// scalar reference included. The log-domain LSE reductions (simd.h:
// ExpSumShifted and friends) need e^x inside their inner loops, and the
// relaxed scaling update (ScalingUpdate) needs x^e, where libm's exp(),
// log() and pow() are both slow and unvectorizable; this header defines
// the shared Cephes-style exp (~1 ulp over the reduced range), an
// fdlibm-style log and the power built from them as plain scalar code,
// and simd_impl.h instantiates the identical operation sequences on lane
// packs. Because every tier — scalar included — evaluates the same
// polynomial with the same fma/multiply/divide structure, per-element
// results are bit-identical across tiers; only the *sum* order of the
// surrounding reductions differs (the usual few-ULP lane-accumulator
// reordering).
//
// Domain contract of the exp (shared by PolyExp and the vector ExpPd
// template):
//  - x < kPolyExpLo (~-708.4, where e^x leaves the normal double range),
//    x = -inf, and x = NaN all return EXACT 0. The flush makes
//    exp(-inf) = 0 without a branch in the vector tiers — exactly the
//    "impossible move carries no mass" convention the log-domain kernels
//    need — at the price of losing subnormal outputs (< ~3e-308).
//  - x > kPolyExpHi (709) clamps to e^709 ≈ 8.2e307. The log-sum-exp
//    callers always shift by the max first, so their inputs are <= 0 and
//    never hit this clamp.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "linalg/simd.h"

namespace otclean::linalg::simd {

// Internal linkage: each ISA translation unit compiles these helpers with
// its own target flags (-mavx512f, -mavx2, none). Were they ordinary
// inline functions, an out-of-line copy (any build that declines to
// inline, e.g. -O0) would be merged across TUs, and the scalar tier could
// end up calling a copy encoded with AVX-512 instructions.
namespace {

// Clamps chosen so the power-of-two scale at the end stays strictly in
// the NORMAL double range (exponent field in [1, 2046]) for every
// admissible n — that is what makes the vector tiers' integer
// exponent-add bit-exact against std::ldexp: e^-708 ≈ 3.3e-308 > DBL_MIN
// and e^709 ≈ 8.2e307 < DBL_MAX.
inline constexpr double kPolyExpLo = -708.0;
inline constexpr double kPolyExpHi = 709.0;
inline constexpr double kPolyExpLog2E = 1.4426950408889634073599;
// ln2 split for extended-precision argument reduction.
inline constexpr double kPolyExpC1 = 6.93145751953125E-1;
inline constexpr double kPolyExpC2 = 1.42860682030941723212E-6;
// Cephes exp() rational coefficients: e^r = 1 + 2r·P(r²)/(Q(r²) − r·P(r²)).
inline constexpr double kPolyExpP0 = 1.26177193074810590878E-4;
inline constexpr double kPolyExpP1 = 3.02994407707441961300E-2;
inline constexpr double kPolyExpP2 = 9.99999999999999999910E-1;
inline constexpr double kPolyExpQ0 = 3.00198505138664455042E-6;
inline constexpr double kPolyExpQ1 = 2.52448340349684104192E-3;
inline constexpr double kPolyExpQ2 = 2.27265548208155028766E-1;
inline constexpr double kPolyExpQ3 = 2.00000000000000000005E0;

/// x·2^n by ONE integer add into the exponent field — the operation the
/// vector tiers' ScaleByPow2 performs, and bit-identical to std::ldexp
/// (without the libm call) whenever x and the result are normal.
inline double ScaleByPow2(double x, double n) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits += static_cast<uint64_t>(static_cast<int64_t>(n)) << 52;
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// e^r on the reduced range |r| ≤ ln2/2 (plus rounding): the Cephes
/// rational, ∈ (0.7, 1.42).
inline double PolyExpReduced(double r) {
  const double rr = r * r;
  double p = kPolyExpP0;
  p = std::fma(p, rr, kPolyExpP1);
  p = std::fma(p, rr, kPolyExpP2);
  const double rp = r * p;
  double q = kPolyExpQ0;
  q = std::fma(q, rr, kPolyExpQ1);
  q = std::fma(q, rr, kPolyExpQ2);
  q = std::fma(q, rr, kPolyExpQ3);
  const double e = rp / (q - rp);
  return std::fma(e, 2.0, 1.0);
}

/// e^x under the domain contract above. The scalar tier's exp, and the
/// per-lane semantics of the vector tiers' ExpPd — kept in exact
/// operation-for-operation correspondence with simd_impl.h's template.
inline double PolyExp(double x) {
  if (!(x >= kPolyExpLo)) return 0.0;  // underflow, -inf and NaN flush to 0
  const double xc = x < kPolyExpHi ? x : kPolyExpHi;
  const double n = std::floor(std::fma(xc, kPolyExpLog2E, 0.5));
  double r = std::fma(n, -kPolyExpC1, xc);
  r = std::fma(n, -kPolyExpC2, r);
  // n ∈ [-1021, 1023] and the reduced exp ∈ (0.7, 1.42), so the result
  // stays strictly normal and the power-of-two scale is exact.
  return ScaleByPow2(PolyExpReduced(r), n);
}

// ------------------------------------------------------------------ log --
//
// ln x for the relaxed Sinkhorn power (ScalingUpdate in simd.h), as the
// exact sum of two doubles: hi = k·ln2_hi (exact — ln2_hi carries 32
// significant bits and |k| ≤ 1024) and lo = k·ln2_lo + ln m, where
// x = 2^k·m with m ∈ [√2/2, √2). ln m is fdlibm's e_log.c evaluation
// (s = f/(2+f), ln m = f − (f²/2 − s·(f²/2 + R(s²))), R a degree-7
// minimax polynomial), within ~1 ulp of |ln m| ≤ 0.35.
//
// Domain contract (shared by PolyLog and the vector LogPdImpl template): x
// must be a NORMAL, positive, finite double. The split reads x's exponent
// and significand straight from its bits, so a subnormal, zero, negative,
// infinite or NaN argument returns garbage; callers screen those first.
// Every step is exact or one IEEE-rounded operation, so hi and lo are
// bit-identical in every tier.

inline constexpr double kPolyLogSqrt2 = 1.41421356237309504880;
inline constexpr double kPolyLogLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kPolyLogLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kPolyLogLg1 = 6.666666666666735130e-01;
inline constexpr double kPolyLogLg2 = 3.999999999940941908e-01;
inline constexpr double kPolyLogLg3 = 2.857142874366239149e-01;
inline constexpr double kPolyLogLg4 = 2.222219843214978396e-01;
inline constexpr double kPolyLogLg5 = 1.818357216161805012e-01;
inline constexpr double kPolyLogLg6 = 1.531383769920937332e-01;
inline constexpr double kPolyLogLg7 = 1.479819860511658591e-01;

/// ln x = hi + lo for a normal positive finite x (see the contract above).
/// Also returns x's split 2^k·m with m ∈ [√2/2, √2), which the power
/// reuses to rebuild its result.
inline void PolyLog(double x, double& hi, double& lo, double& k, double& m) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  k = static_cast<double>(static_cast<int64_t>((bits >> 52) & 0x7ff) - 1023);
  bits = (bits & 0x000fffffffffffffull) | 0x3ff0000000000000ull;
  std::memcpy(&m, &bits, sizeof(m));  // x's significand, in [1, 2)
  const bool big = m >= kPolyLogSqrt2;
  m = big ? m * 0.5 : m;
  k = big ? k + 1.0 : k;
  const double f = m - 1.0;  // exact (Sterbenz)
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 =
      w * std::fma(w, std::fma(w, kPolyLogLg6, kPolyLogLg4), kPolyLogLg2);
  const double t2 =
      z * std::fma(w,
                   std::fma(w, std::fma(w, kPolyLogLg7, kPolyLogLg5),
                            kPolyLogLg3),
                   kPolyLogLg1);
  const double r = t2 + t1;
  const double hfsq = (0.5 * f) * f;
  hi = k * kPolyLogLn2Hi;
  lo = f - (hfsq - std::fma(s, hfsq + r, k * kPolyLogLn2Lo));
}

// --------------------------------------------------- relaxed scaling update --
//
// Per-element semantics of ScalingUpdate (simd.h): the scalar tier runs
// these, the vector tiers run them on their tails and mirror them lane by
// lane in simd_impl.h.

/// x^(1+c) for a normal positive finite x and c = e − 1 ∈ (−1, 0):
/// x·e^{c·ln x}, with c·ln x = yh + yl carried in two doubles (an exact
/// product error and a Fast2Sum — |c·hi| ≥ |c·lo| whenever hi ≠ 0) so
/// the exp argument is exact to ~1e-17 even where |c·ln x| reaches
/// hundreds. x's exponent k is folded into the final power-of-two scale:
/// m·e^r ∈ (0.49, 2) and x^e lies between x and 1, so every step stays
/// normal and the scale is exact.
inline double PolyPow(double x, double c) {
  double hi, lo, k, m;
  PolyLog(x, hi, lo, k, m);
  const double ph = c * hi;
  const double pe = std::fma(c, hi, -ph);  // exact error of c·hi
  const double q = c * lo;
  const double yh = ph + q;
  const double yl = ((ph - yh) + q) + pe;
  const double n = std::floor(std::fma(yh, kPolyExpLog2E, 0.5));
  double r = std::fma(n, -kPolyExpC1, yh);
  r = std::fma(n, -kPolyExpC2, r);
  r = r + yl;
  return ScaleByPow2(m * PolyExpReduced(r), k + n);
}

/// One scaling of ScalingUpdate: clamp((marginal / denom)^(1+c)).
inline double ScalingElement(double marginal, double denom, double c) {
  const double quotient = marginal / denom;
  const double x = denom == 0.0 ? 0.0 : quotient;
  if (c == 0.0) {  // e = 1: the quotient and the clamp
    const double clamped = x < kScalingCeiling ? x : kScalingCeiling;
    return x >= 0.0 ? clamped : 0.0;
  }
  // Screen x into PolyLog's domain: NaN, negatives, zeros and subnormals
  // take a harmless 1 (their result is 0 below), +inf takes DBL_MAX.
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  double xs = x >= kMin ? x : 1.0;
  xs = xs < kMax ? xs : kMax;
  const double pw = PolyPow(xs, c);
  double out = pw < kScalingCeiling ? pw : kScalingCeiling;
  out = x >= std::numeric_limits<double>::infinity() ? kScalingCeiling : out;
  return x >= kMin ? out : 0.0;
}

/// One term of ScalingUpdate's residual: 0 for an unchanged entry, +inf
/// for a zero on one side only, else |next − prev| / prev (NaN and
/// negative readings, from NaN or negative prev, count 0).
inline double ScalingResidual(double next, double prev) {
  const double rel = std::fabs(next - prev) / prev;
  double t = rel >= 0.0 ? rel : 0.0;
  t = prev == 0.0 ? std::numeric_limits<double>::infinity() : t;
  t = next == 0.0 ? std::numeric_limits<double>::infinity() : t;
  return next == prev ? 0.0 : t;
}

}  // namespace
}  // namespace otclean::linalg::simd

#endif  // OTCLEAN_LINALG_SIMD_EXP_H_
