// NEON tier of the SIMD dispatch (aarch64, where NEON is baseline — no
// extra compiler flags needed). A null table on other architectures.

#include "linalg/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "linalg/simd_impl.h"

namespace otclean::linalg::simd {
namespace {

struct PackNeon {
  using V = float64x2_t;
  static constexpr size_t kLanes = 2;
  static V Zero() { return vdupq_n_f64(0.0); }
  static V Set1(double x) { return vdupq_n_f64(x); }
  static V Load(const double* p) { return vld1q_f64(p); }
  static void Store(double* p, V v) { vst1q_f64(p, v); }
  static V Add(V a, V b) { return vaddq_f64(a, b); }
  static V Mul(V a, V b) { return vmulq_f64(a, b); }
  static V Fma(V a, V b, V acc) { return vfmaq_f64(acc, a, b); }
  static V Gather(const double* base, const size_t* idx) {
    // NEON has no gather instruction; two scalar lane loads.
    const float64x1_t lo = vld1_f64(base + idx[0]);
    const float64x1_t hi = vld1_f64(base + idx[1]);
    return vcombine_f64(lo, hi);
  }
  static V LoadF32(const float* p) {
    // vcvt_f64_f32 is exact: every float is representable as a double.
    return vcvt_f64_f32(vld1_f32(p));
  }
  static V GatherF32(const float* base, const size_t* idx) {
    float32x2_t f = vdup_n_f32(base[idx[0]]);
    f = vset_lane_f32(base[idx[1]], f, 1);
    return vcvt_f64_f32(f);
  }
  static double ReduceAdd(V v) {
    return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
  }
  static V Sub(V a, V b) { return vsubq_f64(a, b); }
  static V Div(V a, V b) { return vdivq_f64(a, b); }
  static V Max(V a, V b) { return vmaxq_f64(a, b); }
  static V Min(V a, V b) { return vminq_f64(a, b); }
  static V Floor(V v) { return vrndmq_f64(v); }
  static double ReduceMax(V v) { return vmaxvq_f64(v); }
  static V ScaleByPow2(V x, V n) {
    // n is integral and in [-1021, 1023] (simd_exp.h clamps), so adding
    // n << 52 to the exponent field is an exact power-of-two scale.
    const int64x2_t bits = vshlq_n_s64(vcvtnq_s64_f64(n), 52);
    return vreinterpretq_f64_s64(
        vaddq_s64(vreinterpretq_s64_f64(x), bits));
  }
  static V ZeroIfBelow(V v, V x, V lim) {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(v), vcgeq_f64(x, lim)));
  }
  static V Abs(V v) { return vabsq_f64(v); }
  static V IfGe(V x, V lim, V a, V b) {
    return vbslq_f64(vcgeq_f64(x, lim), a, b);
  }
  static V IfEq(V x, V y, V a, V b) { return vbslq_f64(vceqq_f64(x, y), a, b); }
  static V Exponent(V x) {
    // The 11-bit field converts exactly; subtracting the bias is exact.
    const uint64x2_t field = vandq_u64(
        vshrq_n_u64(vreinterpretq_u64_f64(x), 52), vdupq_n_u64(0x7ff));
    return vsubq_f64(vcvtq_f64_u64(field), vdupq_n_f64(1023.0));
  }
  static V Significand(V x) {
    const uint64x2_t bits =
        vorrq_u64(vandq_u64(vreinterpretq_u64_f64(x),
                            vdupq_n_u64(0x000fffffffffffffull)),
                  vdupq_n_u64(0x3ff0000000000000ull));
    return vreinterpretq_f64_u64(bits);
  }
};

}  // namespace

namespace detail {
const SimdOps* GetNeonOps() {
  static const SimdOps ops = impl::MakeOps<PackNeon>();
  return &ops;
}
}  // namespace detail

}  // namespace otclean::linalg::simd

#else  // not aarch64: tier unavailable.

namespace otclean::linalg::simd::detail {
const SimdOps* GetNeonOps() { return nullptr; }
}  // namespace otclean::linalg::simd::detail

#endif
