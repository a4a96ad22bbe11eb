// Scalar reference tier + runtime dispatch for the SIMD primitives.
//
// The scalar functions are the semantics every vector tier is tested
// against (tests/simd_test.cc) and the baseline bench_simd_kernel measures
// speedups over. They are pinned to genuinely scalar code — on GCC the
// optimizer is told not to auto-vectorize them — so "scalar vs SIMD"
// numbers compare one element per operation against real vector code, not
// against whatever the compiler managed to vectorize on its own.

#include "linalg/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "linalg/simd_exp.h"

namespace otclean::linalg::simd {

namespace {

#if defined(__GNUC__) && !defined(__clang__)
#define OTCLEAN_NOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define OTCLEAN_NOVEC
#endif

// Bodies templated over the kernel operand's storage scalar T serve both
// kernel precisions: a float element widens to double (exactly) before any
// arithmetic, so the f32 references are the f64 bodies applied to the
// widened values — the semantics the f32 vector recipes are tested against.

template <typename T>
OTCLEAN_NOVEC double ScalarDot(const T* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

template <typename T>
OTCLEAN_NOVEC double ScalarDot3(const double* a, const T* b, const double* c,
                                size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += (a[i] * static_cast<double>(b[i])) * c[i];
  }
  return s;
}

OTCLEAN_NOVEC double ScalarSum(const double* a, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i];
  return s;
}

template <typename T>
OTCLEAN_NOVEC double ScalarGatherDot(const T* vals, const size_t* idx,
                                     const double* x, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(vals[i]) * x[idx[i]];
  return s;
}

template <typename T>
OTCLEAN_NOVEC double ScalarGatherDot3(const double* a, const T* b,
                                      const size_t* idx, const double* x,
                                      size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += (a[i] * static_cast<double>(b[i])) * x[idx[i]];
  }
  return s;
}

OTCLEAN_NOVEC void ScalarAxpy(double c, const double* a, double* y,
                              size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += c * a[i];
}

template <typename T>
OTCLEAN_NOVEC void ScalarAxpyRows(const double* coeffs, const T* base,
                                  size_t row_stride, size_t num_rows,
                                  double* y, size_t n) {
  // Plain row-at-a-time sweep — the seed's ApplyTranspose inner loop, and
  // the bench's honest "before" baseline. The vector tiers' two-row
  // blocking accumulates identically per element (see simd_impl.h).
  for (size_t r = 0; r < num_rows; ++r) {
    const double c = coeffs[r];
    if (c == 0.0) continue;  // zero rows are skipped in every tier (simd.h)
    const T* a = base + r * row_stride;
    for (size_t i = 0; i < n; ++i) y[i] += c * static_cast<double>(a[i]);
  }
}

OTCLEAN_NOVEC void ScalarHadamard(const double* a, const double* b,
                                  double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

template <typename T>
OTCLEAN_NOVEC void ScalarScaledHadamard(double s, const T* a, const double* b,
                                        double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (s * static_cast<double>(a[i])) * b[i];
  }
}

template <typename T>
OTCLEAN_NOVEC void ScalarGatherScaledHadamard(double s, const T* vals,
                                              const size_t* idx,
                                              const double* x, double* out,
                                              size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (s * static_cast<double>(vals[i])) * x[idx[i]];
  }
}

// Log-domain scalar tier: one element at a time through the shared
// PolyExp (simd_exp.h) — the same polynomial the vector tiers run per
// lane, so scalar-vs-vector differences are confined to the sum order of
// the exp-sum reductions (the max reductions are bit-identical).

OTCLEAN_NOVEC double ScalarMaxReduce(const double* a, size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) r = a[i] > r ? a[i] : r;
  return r;
}

template <typename T>
OTCLEAN_NOVEC double ScalarAddMaxReduce(const T* a, const double* b,
                                        size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + b[i];
    r = t > r ? t : r;
  }
  return r;
}

template <typename T>
OTCLEAN_NOVEC double ScalarGatherAddMaxReduce(const T* vals,
                                              const size_t* idx,
                                              const double* x, size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(vals[i]) + x[idx[i]];
    r = t > r ? t : r;
  }
  return r;
}

OTCLEAN_NOVEC double ScalarExpSumShifted(const double* a, double shift,
                                         size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += PolyExp(a[i] - shift);
  return s;
}

template <typename T>
OTCLEAN_NOVEC double ScalarAddExpSumShifted(const T* a, const double* b,
                                            double shift, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += PolyExp(static_cast<double>(a[i]) + b[i] - shift);
  }
  return s;
}

template <typename T>
OTCLEAN_NOVEC double ScalarGatherAddExpSumShifted(const T* vals,
                                                  const size_t* idx,
                                                  const double* x,
                                                  double shift, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += PolyExp(static_cast<double>(vals[i]) + x[idx[i]] - shift);
  }
  return s;
}

template <typename T>
OTCLEAN_NOVEC void ScalarAddMaxAccumulate(double c, const T* a, double* mx,
                                          size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + c;
    if (t > mx[i]) mx[i] = t;
  }
}

template <typename T>
OTCLEAN_NOVEC void ScalarAddExpSumAccumulate(double c, const T* a,
                                             const double* shift, double* acc,
                                             size_t n) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] += PolyExp(static_cast<double>(a[i]) + c - shift[i]);
  }
}

template <typename T>
OTCLEAN_NOVEC void ScalarAddExpWrite(double shift, const T* a,
                                     const double* b, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = PolyExp(static_cast<double>(a[i]) + b[i] + shift);
  }
}

// The relaxed scaling update: ScalingElement/ScalingResidual of
// simd_exp.h one element at a time — the semantics the vector tiers mirror
// lane by lane, so every tier writes bit-identical scalings.
OTCLEAN_NOVEC double ScalarScalingUpdate(const double* marginal,
                                         const double* denom, double exponent,
                                         const double* prev, double* next,
                                         size_t n) {
  const double c = exponent - 1.0;
  double r = 0.0;
  for (size_t i = 0; i < n; ++i) {
    next[i] = ScalingElement(marginal[i], denom[i], c);
    const double t = ScalingResidual(next[i], prev[i]);
    r = t > r ? t : r;
  }
  return r;
}

#undef OTCLEAN_NOVEC

/// True when the running CPU can execute `isa` (independent of whether the
/// tier was compiled in).
bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) && defined(__GNUC__)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const detail::SimdOps* OpsFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::GetScalarOps();
    case Isa::kAvx2:
      return detail::GetAvx2Ops();
    case Isa::kAvx512:
      return detail::GetAvx512Ops();
    case Isa::kNeon:
      return detail::GetNeonOps();
  }
  return nullptr;
}

/// Widest supported tier, honoring an OTCLEAN_SIMD env override. An
/// unsupported or unknown request degrades to the best supported tier.
Isa SelectIsa() {
  if (const char* env = std::getenv("OTCLEAN_SIMD")) {
    Isa requested = Isa::kScalar;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      requested = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Isa::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = Isa::kAvx512;
    } else if (std::strcmp(env, "neon") == 0) {
      requested = Isa::kNeon;
    } else {
      known = false;
    }
    if (known && IsaSupported(requested)) return requested;
  }
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (IsaSupported(isa)) return isa;
  }
  return Isa::kScalar;
}

struct Dispatch {
  std::atomic<const detail::SimdOps*> ops{nullptr};
  std::atomic<Isa> isa{Isa::kScalar};
};

Dispatch& ActiveDispatch() {
  static Dispatch dispatch;
  return dispatch;
}

const detail::SimdOps& Active() {
  Dispatch& d = ActiveDispatch();
  const detail::SimdOps* ops = d.ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    static std::once_flag init;
    std::call_once(init, [&d] {
      const Isa isa = SelectIsa();
      d.isa.store(isa, std::memory_order_relaxed);
      d.ops.store(OpsFor(isa), std::memory_order_release);
    });
    ops = d.ops.load(std::memory_order_acquire);
  }
  return *ops;
}

}  // namespace

namespace detail {
const SimdOps* GetScalarOps() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.dot = ScalarDot<double>;
    o.dot3 = ScalarDot3<double>;
    o.sum = ScalarSum;
    o.gather_dot = ScalarGatherDot<double>;
    o.gather_dot3 = ScalarGatherDot3<double>;
    o.axpy = ScalarAxpy;
    o.axpy_rows = ScalarAxpyRows<double>;
    o.hadamard = ScalarHadamard;
    o.scaled_hadamard = ScalarScaledHadamard<double>;
    o.gather_scaled_hadamard = ScalarGatherScaledHadamard<double>;
    o.max_reduce = ScalarMaxReduce;
    o.add_max_reduce = ScalarAddMaxReduce<double>;
    o.gather_add_max_reduce = ScalarGatherAddMaxReduce<double>;
    o.exp_sum_shifted = ScalarExpSumShifted;
    o.add_exp_sum_shifted = ScalarAddExpSumShifted<double>;
    o.gather_add_exp_sum_shifted = ScalarGatherAddExpSumShifted<double>;
    o.add_max_accumulate = ScalarAddMaxAccumulate<double>;
    o.add_exp_sum_accumulate = ScalarAddExpSumAccumulate<double>;
    o.add_exp_write = ScalarAddExpWrite<double>;
    o.scaling_update = ScalarScalingUpdate;
    o.dot_f32 = ScalarDot<float>;
    o.dot3_f32 = ScalarDot3<float>;
    o.gather_dot_f32 = ScalarGatherDot<float>;
    o.gather_dot3_f32 = ScalarGatherDot3<float>;
    o.axpy_rows_f32 = ScalarAxpyRows<float>;
    o.scaled_hadamard_f32 = ScalarScaledHadamard<float>;
    o.gather_scaled_hadamard_f32 = ScalarGatherScaledHadamard<float>;
    o.add_max_reduce_f32 = ScalarAddMaxReduce<float>;
    o.add_exp_sum_shifted_f32 = ScalarAddExpSumShifted<float>;
    o.gather_add_max_reduce_f32 = ScalarGatherAddMaxReduce<float>;
    o.gather_add_exp_sum_shifted_f32 = ScalarGatherAddExpSumShifted<float>;
    o.add_max_accumulate_f32 = ScalarAddMaxAccumulate<float>;
    o.add_exp_sum_accumulate_f32 = ScalarAddExpSumAccumulate<float>;
    o.add_exp_write_f32 = ScalarAddExpWrite<float>;
    return o;
  }();
  return &ops;
}
}  // namespace detail

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) {
  // CpuSupports MUST short-circuit first: OpsFor() executes the ISA TU's
  // table getter, whose static-init code the compiler emits with that
  // ISA's instructions (e.g. zmm moves in GetAvx512Ops) — calling it on a
  // CPU without the ISA is itself an illegal instruction.
  return CpuSupports(isa) && OpsFor(isa) != nullptr;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

Isa ActiveIsa() {
  Active();  // force dispatch selection
  return ActiveDispatch().isa.load(std::memory_order_relaxed);
}

const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

bool SetIsa(Isa isa) {
  if (!IsaSupported(isa)) return false;
  Dispatch& d = ActiveDispatch();
  d.isa.store(isa, std::memory_order_relaxed);
  d.ops.store(OpsFor(isa), std::memory_order_release);
  return true;
}

double Dot(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}

double Dot3(const double* a, const double* b, const double* c, size_t n) {
  return Active().dot3(a, b, c, n);
}

double Sum(const double* a, size_t n) { return Active().sum(a, n); }

double GatherDot(const double* vals, const size_t* idx, const double* x,
                 size_t n) {
  return Active().gather_dot(vals, idx, x, n);
}

double GatherDotSequential(const double* vals, const size_t* idx,
                           const double* x, size_t n) {
  // Not dispatched: the strictly sequential mul+add chain is the same code
  // in every tier (lane parallelism cannot help a length-n dependency
  // chain), and pinning one implementation keeps it bit-identical to the
  // AxpyRows element chain everywhere.
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += vals[i] * x[idx[i]];
  return s;
}

double GatherDot3(const double* a, const double* b, const size_t* idx,
                  const double* x, size_t n) {
  return Active().gather_dot3(a, b, idx, x, n);
}

double GatherDotColumn(const double* vals, const size_t* idx, const double* x,
                       size_t n) {
  return GatherDotSequential(vals, idx, x, n);
}

template <typename T, FloatOnly<T>>
double GatherDotColumn(const T* vals, const size_t* idx, const double* x,
                       size_t n) {
  return Active().gather_dot_f32(vals, idx, x, n);
}

void Axpy(double c, const double* a, double* y, size_t n) {
  Active().axpy(c, a, y, n);
}

void AxpyRows(const double* coeffs, const double* base, size_t row_stride,
              size_t num_rows, double* y, size_t n) {
  Active().axpy_rows(coeffs, base, row_stride, num_rows, y, n);
}

void Hadamard(const double* a, const double* b, double* out, size_t n) {
  Active().hadamard(a, b, out, n);
}

void ScaledHadamard(double s, const double* a, const double* b, double* out,
                    size_t n) {
  Active().scaled_hadamard(s, a, b, out, n);
}

void GatherScaledHadamard(double s, const double* vals, const size_t* idx,
                          const double* x, double* out, size_t n) {
  Active().gather_scaled_hadamard(s, vals, idx, x, out, n);
}

double MaxReduce(const double* a, size_t n) {
  return Active().max_reduce(a, n);
}

double AddMaxReduce(const double* a, const double* b, size_t n) {
  return Active().add_max_reduce(a, b, n);
}

double GatherAddMaxReduce(const double* vals, const size_t* idx,
                          const double* x, size_t n) {
  return Active().gather_add_max_reduce(vals, idx, x, n);
}

double ExpSumShifted(const double* a, double shift, size_t n) {
  return Active().exp_sum_shifted(a, shift, n);
}

double AddExpSumShifted(const double* a, const double* b, double shift,
                        size_t n) {
  return Active().add_exp_sum_shifted(a, b, shift, n);
}

double GatherAddExpSumShifted(const double* vals, const size_t* idx,
                              const double* x, double shift, size_t n) {
  return Active().gather_add_exp_sum_shifted(vals, idx, x, shift, n);
}

void AddMaxAccumulate(double c, const double* a, double* mx, size_t n) {
  Active().add_max_accumulate(c, a, mx, n);
}

void AddExpSumAccumulate(double c, const double* a, const double* shift,
                         double* acc, size_t n) {
  Active().add_exp_sum_accumulate(c, a, shift, acc, n);
}

void AddExpWrite(double shift, const double* a, const double* b, double* out,
                 size_t n) {
  Active().add_exp_write(shift, a, b, out, n);
}

double ScalingUpdate(const double* marginal, const double* denom,
                     double exponent, const double* prev, double* next,
                     size_t n) {
  return Active().scaling_update(marginal, denom, exponent, prev, next, n);
}

template <typename T, FloatOnly<T>>
double Dot(const T* a, const double* b, size_t n) {
  return Active().dot_f32(a, b, n);
}

template <typename T, FloatOnly<T>>
double Dot3(const double* a, const T* b, const double* c, size_t n) {
  return Active().dot3_f32(a, b, c, n);
}

template <typename T, FloatOnly<T>>
double GatherDot(const T* vals, const size_t* idx, const double* x, size_t n) {
  return Active().gather_dot_f32(vals, idx, x, n);
}

template <typename T, FloatOnly<T>>
double GatherDot3(const double* a, const T* b, const size_t* idx,
                  const double* x, size_t n) {
  return Active().gather_dot3_f32(a, b, idx, x, n);
}

template <typename T, FloatOnly<T>>
void AxpyRows(const double* coeffs, const T* base, size_t row_stride,
              size_t num_rows, double* y, size_t n) {
  Active().axpy_rows_f32(coeffs, base, row_stride, num_rows, y, n);
}

template <typename T, FloatOnly<T>>
void ScaledHadamard(double s, const T* a, const double* b, double* out,
                    size_t n) {
  Active().scaled_hadamard_f32(s, a, b, out, n);
}

template <typename T, FloatOnly<T>>
void GatherScaledHadamard(double s, const T* vals, const size_t* idx,
                          const double* x, double* out, size_t n) {
  Active().gather_scaled_hadamard_f32(s, vals, idx, x, out, n);
}

template <typename T, FloatOnly<T>>
double AddMaxReduce(const T* a, const double* b, size_t n) {
  return Active().add_max_reduce_f32(a, b, n);
}

template <typename T, FloatOnly<T>>
double AddExpSumShifted(const T* a, const double* b, double shift, size_t n) {
  return Active().add_exp_sum_shifted_f32(a, b, shift, n);
}

template <typename T, FloatOnly<T>>
double GatherAddMaxReduce(const T* vals, const size_t* idx, const double* x,
                          size_t n) {
  return Active().gather_add_max_reduce_f32(vals, idx, x, n);
}

template <typename T, FloatOnly<T>>
double GatherAddExpSumShifted(const T* vals, const size_t* idx, const double* x,
                              double shift, size_t n) {
  return Active().gather_add_exp_sum_shifted_f32(vals, idx, x, shift, n);
}

template <typename T, FloatOnly<T>>
void AddMaxAccumulate(double c, const T* a, double* mx, size_t n) {
  Active().add_max_accumulate_f32(c, a, mx, n);
}

template <typename T, FloatOnly<T>>
void AddExpSumAccumulate(double c, const T* a, const double* shift, double* acc,
                         size_t n) {
  Active().add_exp_sum_accumulate_f32(c, a, shift, acc, n);
}

template <typename T, FloatOnly<T>>
void AddExpWrite(double shift, const T* a, const double* b, double* out,
                 size_t n) {
  Active().add_exp_write_f32(shift, a, b, out, n);
}

// The float overloads' one instantiation each.
template double Dot(const float*, const double*, size_t);
template double Dot3(const double*, const float*, const double*, size_t);
template double GatherDot(const float*, const size_t*, const double*, size_t);
template double GatherDot3(const double*, const float*, const size_t*,
                           const double*, size_t);
template double GatherDotColumn(const float*, const size_t*, const double*,
                                size_t);
template void AxpyRows(const double*, const float*, size_t, size_t, double*,
                       size_t);
template void ScaledHadamard(double, const float*, const double*, double*,
                             size_t);
template void GatherScaledHadamard(double, const float*, const size_t*,
                                   const double*, double*, size_t);
template double AddMaxReduce(const float*, const double*, size_t);
template double AddExpSumShifted(const float*, const double*, double, size_t);
template double GatherAddMaxReduce(const float*, const size_t*, const double*,
                                   size_t);
template double GatherAddExpSumShifted(const float*, const size_t*,
                                       const double*, double, size_t);
template void AddMaxAccumulate(double, const float*, double*, size_t);
template void AddExpSumAccumulate(double, const float*, const double*,
                                  double*, size_t);
template void AddExpWrite(double, const float*, const double*, double*,
                          size_t);

}  // namespace otclean::linalg::simd
