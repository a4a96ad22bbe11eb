#ifndef OTCLEAN_LINALG_SIMD_IMPL_H_
#define OTCLEAN_LINALG_SIMD_IMPL_H_
// otclean-lint: internal-header — implementation detail of the SIMD layer,
// included only by its ISA translation units; deliberately NOT exported
// through the umbrella header.

// Lane-pack-templated bodies of every SIMD primitive. Each ISA translation
// unit (simd_avx2.cc, simd_avx512.cc, simd_neon.cc) defines a Pack type —
//
//   struct Pack {
//     using V = <vector register type>;
//     static constexpr size_t kLanes;
//     static V Zero();
//     static V Set1(double);
//     static V Load(const double*);            // unaligned
//     static V LoadF32(const float*);          // unaligned, widen to double
//     static void Store(double*, V);           // unaligned
//     static V Add(V, V);
//     static V Mul(V, V);
//     static V Fma(V a, V b, V acc);           // acc + a·b, single rounding
//     static V Gather(const double* base, const size_t* idx);
//     static V GatherF32(const float* base, const size_t* idx);  // widen
//     static double ReduceAdd(V);              // fixed-order lane sum
//   };
//
// — and instantiates these templates into its detail::SimdOps table.
// Writing every body exactly once is what guarantees the contiguous and
// gather variants of a reduction share the same accumulation recipe (see
// the determinism contract in simd.h): GatherDot with identity indices is
// bit-identical to Dot because both ARE the same template, modulo the load.
//
// The f32 kernel-tier variants are the SAME templates instantiated with a
// float element type for the kernel operand: LoadAs/GatherAs below resolve
// to the widening LoadF32/GatherF32, float→double conversion is exact, and
// everything downstream of the load is untouched — so each f32 primitive
// inherits its f64 twin's accumulation recipe and determinism contract by
// construction rather than by parallel maintenance.
//
// Scalar tails use std::fma so the last partial elements round the same
// way the vector body does.

// Log-domain primitives additionally require:
//
//     static V Sub(V, V);
//     static V Div(V, V);
//     static V Max(V, V);
//     static V Min(V, V);
//     static V Floor(V);
//     static double ReduceMax(V);              // order-free lane max
//     static V ScaleByPow2(V x, V n);          // x·2^n, n integral doubles
//                                              // (exponent-field add; x and
//                                              // the result must be normal)
//     static V ZeroIfBelow(V v, V x, V lim);   // lanes of v where x ≥ lim,
//                                              // else exact 0 (NaN x → 0)
//
// which ExpPdImpl composes into the shared PolyExp polynomial of
// simd_exp.h — same coefficients, same fma/mul/div sequence — so a lane
// of any vector tier's exp is bit-identical to the scalar PolyExp.
//
// The relaxed scaling update (ScalingUpdate) further requires the exact
// lane ops
//
//     static V Abs(V);
//     static V IfGe(V x, V lim, V a, V b);     // x ≥ lim ? a : b (NaN x → b)
//     static V IfEq(V x, V y, V a, V b);       // x == y ? a : b (NaN → b)
//     static V Exponent(V x);                  // x's unbiased exponent field
//                                              // as an integral double
//     static V Significand(V x);               // x's significand in [1, 2)
//
// from which LogPdImpl and PowPdImpl mirror simd_exp.h's PolyLog and
// PolyPow operation for operation.

#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/simd_exp.h"

namespace otclean::linalg::simd::impl {

// Element-type-directed loads: double pointers take the plain lane load,
// float pointers take the widening one. The widening conversion is exact,
// so a body instantiated at float differs from its double twin ONLY in how
// many bytes the load touches.
template <class P>
inline typename P::V LoadAs(const double* p) {
  return P::Load(p);
}
template <class P>
inline typename P::V LoadAs(const float* p) {
  return P::LoadF32(p);
}
template <class P>
inline typename P::V GatherAs(const double* base, const size_t* idx) {
  return P::Gather(base, idx);
}
template <class P>
inline typename P::V GatherAs(const float* base, const size_t* idx) {
  return P::GatherF32(base, idx);
}

template <class P, class TA = double>
double DotImpl(const TA* a, const double* b, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(LoadAs<P>(a + i), P::Load(b + i), s0);
    s1 = P::Fma(LoadAs<P>(a + i + L), P::Load(b + i + L), s1);
    s2 = P::Fma(LoadAs<P>(a + i + 2 * L), P::Load(b + i + 2 * L), s2);
    s3 = P::Fma(LoadAs<P>(a + i + 3 * L), P::Load(b + i + 3 * L), s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) s = P::Fma(LoadAs<P>(a + i), P::Load(b + i), s);
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r = std::fma(static_cast<double>(a[i]), b[i], r);
  return r;
}

template <class P, class TV = double>
double GatherDotImpl(const TV* vals, const size_t* idx, const double* x,
                     size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(LoadAs<P>(vals + i), P::Gather(x, idx + i), s0);
    s1 = P::Fma(LoadAs<P>(vals + i + L), P::Gather(x, idx + i + L), s1);
    s2 = P::Fma(LoadAs<P>(vals + i + 2 * L), P::Gather(x, idx + i + 2 * L),
                s2);
    s3 = P::Fma(LoadAs<P>(vals + i + 3 * L), P::Gather(x, idx + i + 3 * L),
                s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Fma(LoadAs<P>(vals + i), P::Gather(x, idx + i), s);
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r = std::fma(static_cast<double>(vals[i]), x[idx[i]], r);
  }
  return r;
}

template <class P, class TB = double>
double Dot3Impl(const double* a, const TB* b, const double* c, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)), P::Load(c + i), s0);
    s1 = P::Fma(P::Mul(P::Load(a + i + L), LoadAs<P>(b + i + L)),
                P::Load(c + i + L), s1);
    s2 = P::Fma(P::Mul(P::Load(a + i + 2 * L), LoadAs<P>(b + i + 2 * L)),
                P::Load(c + i + 2 * L), s2);
    s3 = P::Fma(P::Mul(P::Load(a + i + 3 * L), LoadAs<P>(b + i + 3 * L)),
                P::Load(c + i + 3 * L), s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)), P::Load(c + i), s);
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r = std::fma(a[i] * static_cast<double>(b[i]), c[i], r);
  }
  return r;
}

template <class P, class TB = double>
double GatherDot3Impl(const double* a, const TB* b, const size_t* idx,
                      const double* x, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)),
                P::Gather(x, idx + i), s0);
    s1 = P::Fma(P::Mul(P::Load(a + i + L), LoadAs<P>(b + i + L)),
                P::Gather(x, idx + i + L), s1);
    s2 = P::Fma(P::Mul(P::Load(a + i + 2 * L), LoadAs<P>(b + i + 2 * L)),
                P::Gather(x, idx + i + 2 * L), s2);
    s3 = P::Fma(P::Mul(P::Load(a + i + 3 * L), LoadAs<P>(b + i + 3 * L)),
                P::Gather(x, idx + i + 3 * L), s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)),
               P::Gather(x, idx + i), s);
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r = std::fma(a[i] * static_cast<double>(b[i]), x[idx[i]], r);
  }
  return r;
}

template <class P>
double SumImpl(const double* a, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, P::Load(a + i));
    s1 = P::Add(s1, P::Load(a + i + L));
    s2 = P::Add(s2, P::Load(a + i + 2 * L));
    s3 = P::Add(s3, P::Load(a + i + 3 * L));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) s = P::Add(s, P::Load(a + i));
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r += a[i];
  return r;
}

// Elementwise bodies use Mul-then-Add (NOT Fma): a separately rounded
// multiply and add per element is exactly what the scalar tier computes,
// so these primitives are bit-identical across every tier — the property
// the dense/sparse ApplyTranspose exactness rests on (see simd.h).

template <class P, class TA = double>
void AxpyImpl(double c, const TA* a, double* y, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V cv = P::Set1(c);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(y + i, P::Add(P::Load(y + i), P::Mul(cv, LoadAs<P>(a + i))));
  }
  for (; i < n; ++i) y[i] += c * static_cast<double>(a[i]);
}

template <class P, class TB = double>
void AxpyRowsImpl(const double* coeffs, const TB* base, size_t row_stride,
                  size_t num_rows, double* y, size_t n) {
  constexpr size_t L = P::kLanes;
  size_t r = 0;
  // Two rows per pass: one load+store of y per pair instead of per row.
  // Each y element still accumulates the rows in ascending order with one
  // rounded multiply and add per row — the blocking is traffic-only.
  // Zero-coefficient rows are skipped INDIVIDUALLY, exactly as the scalar
  // tier skips them: a mixed pair degrades to a single-row Axpy, so tiers
  // agree bit for bit even on non-finite row data (0·inf never happens in
  // any tier).
  for (; r + 2 <= num_rows; r += 2) {
    if (coeffs[r] == 0.0 || coeffs[r + 1] == 0.0) {
      if (coeffs[r] != 0.0) {
        AxpyImpl<P>(coeffs[r], base + r * row_stride, y, n);
      } else if (coeffs[r + 1] != 0.0) {
        AxpyImpl<P>(coeffs[r + 1], base + (r + 1) * row_stride, y, n);
      }
      continue;
    }
    const typename P::V c0 = P::Set1(coeffs[r]);
    const typename P::V c1 = P::Set1(coeffs[r + 1]);
    const TB* a0 = base + r * row_stride;
    const TB* a1 = base + (r + 1) * row_stride;
    size_t i = 0;
    for (; i + L <= n; i += L) {
      typename P::V acc = P::Load(y + i);
      acc = P::Add(acc, P::Mul(c0, LoadAs<P>(a0 + i)));
      acc = P::Add(acc, P::Mul(c1, LoadAs<P>(a1 + i)));
      P::Store(y + i, acc);
    }
    for (; i < n; ++i) {
      y[i] += coeffs[r] * static_cast<double>(a0[i]);
      y[i] += coeffs[r + 1] * static_cast<double>(a1[i]);
    }
  }
  if (r < num_rows && coeffs[r] != 0.0) {
    AxpyImpl<P>(coeffs[r], base + r * row_stride, y, n);
  }
}

template <class P>
void HadamardImpl(const double* a, const double* b, double* out, size_t n) {
  constexpr size_t L = P::kLanes;
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i, P::Mul(P::Load(a + i), P::Load(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

template <class P, class TA = double>
void ScaledHadamardImpl(double s, const TA* a, const double* b, double* out,
                        size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sv = P::Set1(s);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i, P::Mul(P::Mul(sv, LoadAs<P>(a + i)), P::Load(b + i)));
  }
  for (; i < n; ++i) out[i] = (s * static_cast<double>(a[i])) * b[i];
}

template <class P, class TV = double>
void GatherScaledHadamardImpl(double s, const TV* vals, const size_t* idx,
                              const double* x, double* out, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sv = P::Set1(s);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i,
             P::Mul(P::Mul(sv, LoadAs<P>(vals + i)), P::Gather(x, idx + i)));
  }
  for (; i < n; ++i) out[i] = (s * static_cast<double>(vals[i])) * x[idx[i]];
}

// ------------------------------------------------------------ log-domain --

/// Lane-pack PolyExpReduced (simd_exp.h): the Cephes rational on the
/// reduced range.
template <class P>
typename P::V ExpReducedPdImpl(typename P::V r) {
  using V = typename P::V;
  const V rr = P::Mul(r, r);
  V p = P::Set1(kPolyExpP0);
  p = P::Fma(p, rr, P::Set1(kPolyExpP1));
  p = P::Fma(p, rr, P::Set1(kPolyExpP2));
  const V rp = P::Mul(r, p);
  V q = P::Set1(kPolyExpQ0);
  q = P::Fma(q, rr, P::Set1(kPolyExpQ1));
  q = P::Fma(q, rr, P::Set1(kPolyExpQ2));
  q = P::Fma(q, rr, P::Set1(kPolyExpQ3));
  const V e = P::Div(rp, P::Sub(q, rp));
  return P::Fma(e, P::Set1(2.0), P::Set1(1.0));
}

/// Lane-pack PolyExp (simd_exp.h): identical clamp → argument reduction →
/// rational polynomial → power-of-two scale sequence, one lane per
/// element. See the domain contract in simd_exp.h.
template <class P>
typename P::V ExpPdImpl(typename P::V x) {
  using V = typename P::V;
  const V lo = P::Set1(kPolyExpLo);
  const V xc = P::Max(P::Min(x, P::Set1(kPolyExpHi)), lo);
  const V n = P::Floor(P::Fma(xc, P::Set1(kPolyExpLog2E), P::Set1(0.5)));
  V r = P::Fma(n, P::Set1(-kPolyExpC1), xc);
  r = P::Fma(n, P::Set1(-kPolyExpC2), r);
  const V res = P::ScaleByPow2(ExpReducedPdImpl<P>(r), n);
  return P::ZeroIfBelow(res, x, lo);  // underflow, -inf, NaN → exact 0
}

/// Lane-pack PolyLog (simd_exp.h): ln x = hi + lo and x = 2^k·m, one lane
/// per element, under PolyLog's domain contract (normal positive finite
/// x).
template <class P>
void LogPdImpl(typename P::V x, typename P::V& hi, typename P::V& lo,
               typename P::V& k, typename P::V& m) {
  using V = typename P::V;
  k = P::Exponent(x);
  m = P::Significand(x);
  const V sqrt2 = P::Set1(kPolyLogSqrt2);
  k = P::IfGe(m, sqrt2, P::Add(k, P::Set1(1.0)), k);
  m = P::IfGe(m, sqrt2, P::Mul(m, P::Set1(0.5)), m);
  const V f = P::Sub(m, P::Set1(1.0));
  const V s = P::Div(f, P::Add(P::Set1(2.0), f));
  const V z = P::Mul(s, s);
  const V w = P::Mul(z, z);
  const V t1 = P::Mul(
      w, P::Fma(w, P::Fma(w, P::Set1(kPolyLogLg6), P::Set1(kPolyLogLg4)),
                P::Set1(kPolyLogLg2)));
  const V t2 = P::Mul(
      z, P::Fma(w,
                P::Fma(w,
                       P::Fma(w, P::Set1(kPolyLogLg7), P::Set1(kPolyLogLg5)),
                       P::Set1(kPolyLogLg3)),
                P::Set1(kPolyLogLg1)));
  const V r = P::Add(t2, t1);
  const V hfsq = P::Mul(P::Mul(P::Set1(0.5), f), f);
  hi = P::Mul(k, P::Set1(kPolyLogLn2Hi));
  lo = P::Sub(f, P::Sub(hfsq, P::Fma(s, P::Add(hfsq, r),
                                     P::Mul(k, P::Set1(kPolyLogLn2Lo)))));
}

/// Lane-pack PolyPow (simd_exp.h): x^(1+c) for normal positive finite x.
template <class P>
typename P::V PowPdImpl(typename P::V x, typename P::V c) {
  using V = typename P::V;
  V hi, lo, k, m;
  LogPdImpl<P>(x, hi, lo, k, m);
  const V ph = P::Mul(c, hi);
  const V pe = P::Fma(c, hi, P::Sub(P::Zero(), ph));
  const V q = P::Mul(c, lo);
  const V yh = P::Add(ph, q);
  const V yl = P::Add(P::Add(P::Sub(ph, yh), q), pe);
  const V n = P::Floor(P::Fma(yh, P::Set1(kPolyExpLog2E), P::Set1(0.5)));
  V r = P::Fma(n, P::Set1(-kPolyExpC1), yh);
  r = P::Fma(n, P::Set1(-kPolyExpC2), r);
  r = P::Add(r, yl);
  return P::ScaleByPow2(P::Mul(m, ExpReducedPdImpl<P>(r)), P::Add(k, n));
}

/// Lane-pack ScalingElement (simd_exp.h).
template <class P>
typename P::V ScalingPdImpl(typename P::V marginal, typename P::V denom,
                            typename P::V c, bool unit_exponent) {
  using V = typename P::V;
  const V zero = P::Zero();
  const V ceiling = P::Set1(kScalingCeiling);
  const V x = P::IfEq(denom, zero, zero, P::Div(marginal, denom));
  if (unit_exponent) return P::IfGe(x, zero, P::Min(x, ceiling), zero);
  const V min_normal = P::Set1(std::numeric_limits<double>::min());
  V xs = P::IfGe(x, min_normal, x, P::Set1(1.0));
  xs = P::Min(xs, P::Set1(std::numeric_limits<double>::max()));
  V out = P::Min(PowPdImpl<P>(xs, c), ceiling);
  out = P::IfGe(x, P::Set1(std::numeric_limits<double>::infinity()), ceiling,
                out);
  return P::IfGe(x, min_normal, out, zero);
}

/// Lane-pack ScalingResidual (simd_exp.h).
template <class P>
typename P::V ScalingResidualPdImpl(typename P::V next, typename P::V prev) {
  using V = typename P::V;
  const V zero = P::Zero();
  const V inf = P::Set1(std::numeric_limits<double>::infinity());
  const V rel = P::Div(P::Abs(P::Sub(next, prev)), prev);
  V t = P::IfGe(rel, zero, rel, zero);
  t = P::IfEq(prev, zero, inf, t);
  t = P::IfEq(next, zero, inf, t);
  return P::IfEq(next, prev, zero, t);
}

/// ScalingUpdate: every element through the lane mirror of
/// ScalingElement, the residual as a max reduction (exact in any order).
template <class P>
double ScalingUpdateImpl(const double* marginal, const double* denom,
                         double exponent, const double* prev, double* next,
                         size_t n) {
  using V = typename P::V;
  constexpr size_t L = P::kLanes;
  const double c = exponent - 1.0;
  const bool unit = c == 0.0;
  const V cv = P::Set1(c);
  V acc = P::Zero();
  size_t i = 0;
  for (; i + L <= n; i += L) {
    const V s = ScalingPdImpl<P>(P::Load(marginal + i), P::Load(denom + i),
                                 cv, unit);
    P::Store(next + i, s);
    acc = P::Max(acc, ScalingResidualPdImpl<P>(s, P::Load(prev + i)));
  }
  double r = P::ReduceMax(acc);
  for (; i < n; ++i) {
    next[i] = ScalingElement(marginal[i], denom[i], c);
    const double t = ScalingResidual(next[i], prev[i]);
    r = t > r ? t : r;
  }
  return r;
}

// The max reductions reuse the 4-accumulator blocking of the sums. Max is
// exactly associative and commutative (no NaN inputs by contract), so —
// unlike the sums — any blocking gives the bit-identical result the
// scalar tier computes.

template <class P>
double MaxReduceImpl(const double* a, size_t n) {
  constexpr size_t L = P::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  typename P::V s0 = P::Set1(kNegInf), s1 = s0, s2 = s0, s3 = s0;
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Max(s0, P::Load(a + i));
    s1 = P::Max(s1, P::Load(a + i + L));
    s2 = P::Max(s2, P::Load(a + i + 2 * L));
    s3 = P::Max(s3, P::Load(a + i + 3 * L));
  }
  typename P::V s = P::Max(P::Max(s0, s1), P::Max(s2, s3));
  for (; i + L <= n; i += L) s = P::Max(s, P::Load(a + i));
  double r = P::ReduceMax(s);
  for (; i < n; ++i) r = a[i] > r ? a[i] : r;
  return r;
}

template <class P, class TA = double>
double AddMaxReduceImpl(const TA* a, const double* b, size_t n) {
  constexpr size_t L = P::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  typename P::V s0 = P::Set1(kNegInf), s1 = s0, s2 = s0, s3 = s0;
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Max(s0, P::Add(LoadAs<P>(a + i), P::Load(b + i)));
    s1 = P::Max(s1, P::Add(LoadAs<P>(a + i + L), P::Load(b + i + L)));
    s2 = P::Max(s2, P::Add(LoadAs<P>(a + i + 2 * L), P::Load(b + i + 2 * L)));
    s3 = P::Max(s3, P::Add(LoadAs<P>(a + i + 3 * L), P::Load(b + i + 3 * L)));
  }
  typename P::V s = P::Max(P::Max(s0, s1), P::Max(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Max(s, P::Add(LoadAs<P>(a + i), P::Load(b + i)));
  }
  double r = P::ReduceMax(s);
  for (; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + b[i];
    r = t > r ? t : r;
  }
  return r;
}

template <class P, class TV = double>
double GatherAddMaxReduceImpl(const TV* vals, const size_t* idx,
                              const double* x, size_t n) {
  constexpr size_t L = P::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  typename P::V s0 = P::Set1(kNegInf), s1 = s0, s2 = s0, s3 = s0;
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Max(s0, P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)));
    s1 = P::Max(s1,
                P::Add(LoadAs<P>(vals + i + L), P::Gather(x, idx + i + L)));
    s2 = P::Max(s2, P::Add(LoadAs<P>(vals + i + 2 * L),
                           P::Gather(x, idx + i + 2 * L)));
    s3 = P::Max(s3, P::Add(LoadAs<P>(vals + i + 3 * L),
                           P::Gather(x, idx + i + 3 * L)));
  }
  typename P::V s = P::Max(P::Max(s0, s1), P::Max(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Max(s, P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)));
  }
  double r = P::ReduceMax(s);
  for (; i < n; ++i) {
    const double t = static_cast<double>(vals[i]) + x[idx[i]];
    r = t > r ? t : r;
  }
  return r;
}

template <class P>
double ExpSumShiftedImpl(const double* a, double shift, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, ExpPdImpl<P>(P::Sub(P::Load(a + i), sh)));
    s1 = P::Add(s1, ExpPdImpl<P>(P::Sub(P::Load(a + i + L), sh)));
    s2 = P::Add(s2, ExpPdImpl<P>(P::Sub(P::Load(a + i + 2 * L), sh)));
    s3 = P::Add(s3, ExpPdImpl<P>(P::Sub(P::Load(a + i + 3 * L), sh)));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Add(s, ExpPdImpl<P>(P::Sub(P::Load(a + i), sh)));
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r += PolyExp(a[i] - shift);
  return r;
}

template <class P, class TA = double>
double AddExpSumShiftedImpl(const TA* a, const double* b, double shift,
                            size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, ExpPdImpl<P>(
                        P::Sub(P::Add(LoadAs<P>(a + i), P::Load(b + i)), sh)));
    s1 = P::Add(s1,
                ExpPdImpl<P>(P::Sub(
                    P::Add(LoadAs<P>(a + i + L), P::Load(b + i + L)), sh)));
    s2 = P::Add(s2,
                ExpPdImpl<P>(P::Sub(
                    P::Add(LoadAs<P>(a + i + 2 * L), P::Load(b + i + 2 * L)),
                    sh)));
    s3 = P::Add(s3,
                ExpPdImpl<P>(P::Sub(
                    P::Add(LoadAs<P>(a + i + 3 * L), P::Load(b + i + 3 * L)),
                    sh)));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Add(s,
               ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(a + i), P::Load(b + i)),
                                   sh)));
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r += PolyExp(static_cast<double>(a[i]) + b[i] - shift);
  return r;
}

template <class P, class TV = double>
double GatherAddExpSumShiftedImpl(const TV* vals, const size_t* idx,
                                  const double* x, double shift, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, ExpPdImpl<P>(P::Sub(
                        P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)),
                        sh)));
    s1 = P::Add(s1, ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(vals + i + L),
                                               P::Gather(x, idx + i + L)),
                                        sh)));
    s2 = P::Add(s2, ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(vals + i + 2 * L),
                                               P::Gather(x, idx + i + 2 * L)),
                                        sh)));
    s3 = P::Add(s3, ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(vals + i + 3 * L),
                                               P::Gather(x, idx + i + 3 * L)),
                                        sh)));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Add(s, ExpPdImpl<P>(P::Sub(
                      P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)),
                      sh)));
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r += PolyExp(static_cast<double>(vals[i]) + x[idx[i]] - shift);
  }
  return r;
}

template <class P, class TA = double>
void AddMaxAccumulateImpl(double c, const TA* a, double* mx, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V cv = P::Set1(c);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(mx + i,
             P::Max(P::Load(mx + i), P::Add(LoadAs<P>(a + i), cv)));
  }
  for (; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + c;
    if (t > mx[i]) mx[i] = t;
  }
}

template <class P, class TA = double>
void AddExpSumAccumulateImpl(double c, const TA* a, const double* shift,
                             double* acc, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V cv = P::Set1(c);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    const typename P::V t =
        P::Sub(P::Add(LoadAs<P>(a + i), cv), P::Load(shift + i));
    P::Store(acc + i, P::Add(P::Load(acc + i), ExpPdImpl<P>(t)));
  }
  for (; i < n; ++i) {
    acc[i] += PolyExp(static_cast<double>(a[i]) + c - shift[i]);
  }
}

template <class P, class TA = double>
void AddExpWriteImpl(double shift, const TA* a, const double* b,
                     double* out, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i, ExpPdImpl<P>(P::Add(
                          P::Add(LoadAs<P>(a + i), P::Load(b + i)), sh)));
  }
  for (; i < n; ++i) out[i] = PolyExp(static_cast<double>(a[i]) + b[i] + shift);
}

/// The table every ISA TU exports, filled from one Pack type.
template <class P>
detail::SimdOps MakeOps() {
  detail::SimdOps ops;
  ops.dot = DotImpl<P>;
  ops.dot3 = Dot3Impl<P>;
  ops.sum = SumImpl<P>;
  ops.gather_dot = GatherDotImpl<P>;
  ops.gather_dot3 = GatherDot3Impl<P>;
  ops.axpy = AxpyImpl<P>;
  ops.axpy_rows = AxpyRowsImpl<P>;
  ops.hadamard = HadamardImpl<P>;
  ops.scaled_hadamard = ScaledHadamardImpl<P>;
  ops.gather_scaled_hadamard = GatherScaledHadamardImpl<P>;
  ops.max_reduce = MaxReduceImpl<P>;
  ops.add_max_reduce = AddMaxReduceImpl<P>;
  ops.gather_add_max_reduce = GatherAddMaxReduceImpl<P>;
  ops.exp_sum_shifted = ExpSumShiftedImpl<P>;
  ops.add_exp_sum_shifted = AddExpSumShiftedImpl<P>;
  ops.gather_add_exp_sum_shifted = GatherAddExpSumShiftedImpl<P>;
  ops.add_max_accumulate = AddMaxAccumulateImpl<P>;
  ops.add_exp_sum_accumulate = AddExpSumAccumulateImpl<P>;
  ops.add_exp_write = AddExpWriteImpl<P>;
  ops.scaling_update = ScalingUpdateImpl<P>;
  // f32 kernel tier: the same templates at float, widening through
  // LoadF32/GatherF32.
  ops.dot_f32 = DotImpl<P, float>;
  ops.dot3_f32 = Dot3Impl<P, float>;
  ops.gather_dot_f32 = GatherDotImpl<P, float>;
  ops.gather_dot3_f32 = GatherDot3Impl<P, float>;
  ops.axpy_rows_f32 = AxpyRowsImpl<P, float>;
  ops.scaled_hadamard_f32 = ScaledHadamardImpl<P, float>;
  ops.gather_scaled_hadamard_f32 = GatherScaledHadamardImpl<P, float>;
  ops.add_max_reduce_f32 = AddMaxReduceImpl<P, float>;
  ops.add_exp_sum_shifted_f32 = AddExpSumShiftedImpl<P, float>;
  ops.gather_add_max_reduce_f32 = GatherAddMaxReduceImpl<P, float>;
  ops.gather_add_exp_sum_shifted_f32 = GatherAddExpSumShiftedImpl<P, float>;
  ops.add_max_accumulate_f32 = AddMaxAccumulateImpl<P, float>;
  ops.add_exp_sum_accumulate_f32 = AddExpSumAccumulateImpl<P, float>;
  ops.add_exp_write_f32 = AddExpWriteImpl<P, float>;
  return ops;
}

}  // namespace otclean::linalg::simd::impl

#endif  // OTCLEAN_LINALG_SIMD_IMPL_H_
