// AVX-512F tier of the SIMD dispatch. Compiled with -mavx512f on x86-64
// (see CMakeLists.txt); a null table everywhere else. Runtime CPU support
// is checked in simd.cc before the table is ever selected.

#include "linalg/simd.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include "linalg/simd_impl.h"

namespace otclean::linalg::simd {
namespace {

struct PackAvx512 {
  using V = __m512d;
  static constexpr size_t kLanes = 8;
  static V Zero() { return _mm512_setzero_pd(); }
  static V Set1(double x) { return _mm512_set1_pd(x); }
  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Fma(V a, V b, V acc) { return _mm512_fmadd_pd(a, b, acc); }
  static V Gather(const double* base, const size_t* idx) {
    const __m512i vi =
        _mm512_loadu_si512(reinterpret_cast<const void*>(idx));
    return _mm512_i64gather_pd(vi, base, 8);
  }
  static V LoadF32(const float* p) {
    // cvtps_pd is exact: every float is representable as a double.
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }
  static V GatherF32(const float* base, const size_t* idx) {
    const __m512i vi =
        _mm512_loadu_si512(reinterpret_cast<const void*>(idx));
    return _mm512_cvtps_pd(_mm512_i64gather_ps(vi, base, 4));
  }
  static double ReduceAdd(V v) {
    alignas(64) double l[8];
    _mm512_store_pd(l, v);
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Div(V a, V b) { return _mm512_div_pd(a, b); }
  static V Max(V a, V b) { return _mm512_max_pd(a, b); }
  static V Min(V a, V b) { return _mm512_min_pd(a, b); }
  static V Floor(V v) {
    return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static double ReduceMax(V v) {
    alignas(64) double l[8];
    _mm512_store_pd(l, v);
    double r = l[0];
    for (int i = 1; i < 8; ++i) r = l[i] > r ? l[i] : r;
    return r;
  }
  static V ScaleByPow2(V x, V n) {
    // n is integral and in [-1021, 1023] (simd_exp.h clamps), so adding
    // n << 52 to the exponent field is an exact power-of-two scale.
    const __m256i n32 = _mm512_cvtpd_epi32(n);
    const __m512i bits = _mm512_slli_epi64(_mm512_cvtepi32_epi64(n32), 52);
    return _mm512_castsi512_pd(
        _mm512_add_epi64(_mm512_castpd_si512(x), bits));
  }
  static V ZeroIfBelow(V v, V x, V lim) {
    return _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(x, lim, _CMP_GE_OQ), v);
  }
  static V Abs(V v) { return _mm512_abs_pd(v); }
  static V IfGe(V x, V lim, V a, V b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, lim, _CMP_GE_OQ), b, a);
  }
  static V IfEq(V x, V y, V a, V b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, y, _CMP_EQ_OQ), b, a);
  }
  static V Exponent(V x) {
    // The 11-bit field ORed under 2^52's bits is the double 2^52 + field;
    // subtracting 2^52 + 1023 leaves the unbiased exponent, exactly.
    const __m512i field = _mm512_and_si512(
        _mm512_srli_epi64(_mm512_castpd_si512(x), 52),
        _mm512_set1_epi64(0x7ff));
    const __m512d biased = _mm512_castsi512_pd(
        _mm512_or_si512(field, _mm512_set1_epi64(0x4330000000000000)));
    return _mm512_sub_pd(biased, _mm512_set1_pd(4503599627371519.0));
  }
  static V Significand(V x) {
    const __m512i bits = _mm512_or_si512(
        _mm512_and_si512(_mm512_castpd_si512(x),
                         _mm512_set1_epi64(0x000fffffffffffff)),
        _mm512_set1_epi64(0x3ff0000000000000));
    return _mm512_castsi512_pd(bits);
  }
};

}  // namespace

namespace detail {
const SimdOps* GetAvx512Ops() {
  static const SimdOps ops = impl::MakeOps<PackAvx512>();
  return &ops;
}
}  // namespace detail

}  // namespace otclean::linalg::simd

#else  // non-x86-64 build or flags missing: tier unavailable.

namespace otclean::linalg::simd::detail {
const SimdOps* GetAvx512Ops() { return nullptr; }
}  // namespace otclean::linalg::simd::detail

#endif
