// AVX2+FMA tier of the SIMD dispatch. This file is compiled with
// -mavx2 -mfma on x86-64 (see CMakeLists.txt); everywhere else it
// collapses to a null table and the dispatcher skips the tier. Runtime CPU
// support is checked in simd.cc before the table is ever selected.

#include "linalg/simd.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "linalg/simd_impl.h"

namespace otclean::linalg::simd {
namespace {

struct PackAvx2 {
  using V = __m256d;
  static constexpr size_t kLanes = 4;
  static V Zero() { return _mm256_setzero_pd(); }
  static V Set1(double x) { return _mm256_set1_pd(x); }
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Fma(V a, V b, V acc) { return _mm256_fmadd_pd(a, b, acc); }
  static V Gather(const double* base, const size_t* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return _mm256_i64gather_pd(base, vi, 8);
  }
  static V LoadF32(const float* p) {
    // cvtps_pd is exact: every float is representable as a double.
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static V GatherF32(const float* base, const size_t* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return _mm256_cvtps_pd(_mm256_i64gather_ps(base, vi, 4));
  }
  static double ReduceAdd(V v) {
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    return (l[0] + l[1]) + (l[2] + l[3]);
  }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  static V Max(V a, V b) { return _mm256_max_pd(a, b); }
  static V Min(V a, V b) { return _mm256_min_pd(a, b); }
  static V Floor(V v) { return _mm256_floor_pd(v); }
  static double ReduceMax(V v) {
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    const double lo = l[0] > l[1] ? l[0] : l[1];
    const double hi = l[2] > l[3] ? l[2] : l[3];
    return lo > hi ? lo : hi;
  }
  static V ScaleByPow2(V x, V n) {
    // n is integral and in [-1021, 1023] (simd_exp.h clamps), so adding
    // n << 52 to the exponent field is an exact power-of-two scale.
    const __m128i n32 = _mm256_cvtpd_epi32(n);
    const __m256i bits = _mm256_slli_epi64(_mm256_cvtepi32_epi64(n32), 52);
    return _mm256_castsi256_pd(
        _mm256_add_epi64(_mm256_castpd_si256(x), bits));
  }
  static V ZeroIfBelow(V v, V x, V lim) {
    return _mm256_and_pd(v, _mm256_cmp_pd(x, lim, _CMP_GE_OQ));
  }
  static V Abs(V v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }
  static V IfGe(V x, V lim, V a, V b) {
    return _mm256_blendv_pd(b, a, _mm256_cmp_pd(x, lim, _CMP_GE_OQ));
  }
  static V IfEq(V x, V y, V a, V b) {
    return _mm256_blendv_pd(b, a, _mm256_cmp_pd(x, y, _CMP_EQ_OQ));
  }
  static V Exponent(V x) {
    // The 11-bit field ORed under 2^52's bits is the double 2^52 + field;
    // subtracting 2^52 + 1023 leaves the unbiased exponent, exactly.
    const __m256i field = _mm256_and_si256(
        _mm256_srli_epi64(_mm256_castpd_si256(x), 52),
        _mm256_set1_epi64x(0x7ff));
    const __m256d biased = _mm256_castsi256_pd(
        _mm256_or_si256(field, _mm256_set1_epi64x(0x4330000000000000)));
    return _mm256_sub_pd(biased, _mm256_set1_pd(4503599627371519.0));
  }
  static V Significand(V x) {
    const __m256i bits = _mm256_or_si256(
        _mm256_and_si256(_mm256_castpd_si256(x),
                         _mm256_set1_epi64x(0x000fffffffffffff)),
        _mm256_set1_epi64x(0x3ff0000000000000));
    return _mm256_castsi256_pd(bits);
  }
};

}  // namespace

namespace detail {
const SimdOps* GetAvx2Ops() {
  static const SimdOps ops = impl::MakeOps<PackAvx2>();
  return &ops;
}
}  // namespace detail

}  // namespace otclean::linalg::simd

#else  // non-x86-64 build or flags missing: tier unavailable.

namespace otclean::linalg::simd::detail {
const SimdOps* GetAvx2Ops() { return nullptr; }
}  // namespace otclean::linalg::simd::detail

#endif
