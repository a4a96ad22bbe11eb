#ifndef OTCLEAN_LINALG_SIMD_H_
#define OTCLEAN_LINALG_SIMD_H_

#include <cstddef>
#include <type_traits>
#include <vector>

namespace otclean::linalg::simd {

/// Runtime-dispatched SIMD primitives for the transport-kernel hot loops and
/// the Vector/SparseMatrix helpers they lean on.
///
/// One instruction set is selected for the whole process the first time any
/// primitive runs: the widest the CPU supports among the translation units
/// compiled in (AVX-512F > AVX2+FMA on x86-64, NEON on aarch64), else the
/// portable scalar reference. The `OTCLEAN_SIMD` environment variable
/// (`scalar`, `avx2`, `avx512`, `neon`) forces a narrower choice — an
/// unsupported request falls back to the best supported tier — and
/// `ActiveIsaName()` reports what was picked (`otclean --report` prints it).
///
/// Determinism contract:
///  - For a fixed ISA, every primitive is deterministic: reductions use a
///    fixed accumulation recipe (4 lane-wide partial accumulators over
///    blocks of 4×lanes, combined as (s0+s1)+(s2+s3), a single-accumulator
///    lane loop, a fixed-order horizontal lane sum, then a scalar tail).
///    Nothing depends on thread count — threading above this layer keeps
///    its own fixed-block reductions (see parallel_for.h).
///  - Contiguous and gather variants of the same reduction share that
///    recipe, so e.g. `GatherDot(vals, idx, x, n)` with `idx = 0..n-1` is
///    bit-identical to `Dot(vals, x, n)` — which keeps dense and
///    cutoff-zero sparse kernels in exact agreement.
///  - The elementwise primitives (Axpy, AxpyRows, Hadamard, …) and the
///    sequential gather chain perform separately rounded multiplies and
///    adds per element in a fixed order, so they are bit-identical across
///    EVERY tier, scalar included — vectorization changes only how many
///    elements move per instruction.
///  - Only the lane-accumulated reductions (Dot, Dot3, Sum, GatherDot,
///    GatherDot3) differ between tiers, and only to rounding: wider
///    accumulators reorder the sum by a few ULP (tests/simd_test.cc pins
///    the bound).
///  - The log-domain primitives below evaluate e^x with ONE shared
///    polynomial (simd_exp.h) in every tier, scalar included, so their
///    per-element values are bit-identical across tiers; the max
///    reductions are exactly associative and thus bit-identical
///    everywhere, and the exp-sum reductions differ only by the usual
///    lane-accumulator sum reordering.
///  - ScalingUpdate, the relaxed Sinkhorn update, evaluates its power with
///    the shared PolyLog/PolyExp pair (simd_exp.h) in the same operation
///    sequence in every tier, scalar included, so each written scaling is
///    bit-identical across tiers; its residual is a max reduction and thus
///    bit-identical everywhere too.
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// Lower-case name of an ISA ("scalar", "avx2", "avx512", "neon").
const char* IsaName(Isa isa);

/// The ISA the dispatched primitives currently run on.
Isa ActiveIsa();
const char* ActiveIsaName();

/// True when `isa` was compiled in and the CPU can run it.
bool IsaSupported(Isa isa);

/// Every supported ISA, scalar first — what tests/benches iterate over.
std::vector<Isa> SupportedIsas();

/// Forces the dispatch to `isa` (no-op returning false when unsupported).
/// For tests and benches comparing tiers; production code never calls it.
/// Not thread-safe against concurrently running primitives.
bool SetIsa(Isa isa);

/// The largest value a Sinkhorn scaling may take. The scalings of kernels
/// with a large dynamic range (costs that effectively forbid some moves)
/// can run past the double range over many iterations; an infinite entry
/// would zero the opposite scaling and drain the plan, so +inf and any
/// overflow clamp here instead, keeping u·K·v finite.
inline constexpr double kScalingCeiling = 1e150;

// ------------------------------------------------------------ reductions --

/// Σ a[i]·b[i].
double Dot(const double* a, const double* b, size_t n);

/// Σ (a[i]·b[i])·c[i] — the dense ⟨C, u∘K∘v⟩ row kernel.
double Dot3(const double* a, const double* b, const double* c, size_t n);

/// Σ a[i].
double Sum(const double* a, size_t n);

/// Σ vals[k]·x[idx[k]] — the CSR/CSC row (column) gather kernel.
double GatherDot(const double* vals, const size_t* idx, const double* x,
                 size_t n);

/// Σ vals[k]·x[idx[k]] accumulated in strictly sequential element order —
/// the CSC transpose-apply kernel. Unlike GatherDot it never reorders the
/// sum: one rounded multiply and one rounded add per element, exactly the
/// chain AxpyRows applies to each output, so at full support the sparse
/// transpose-apply is bit-identical to the dense ApplyTranspose, and to
/// the dense fused sweep (UpdateRowsApplyTranspose) on a single-block
/// kernel; a multi-block fused sweep adds its per-block partials in block
/// order and so differs from this chain by rounding. The chain is
/// latency-bound and identical in every tier (it is not dispatched) — the
/// price of that exactness is that this one gather cannot use
/// lane-parallel accumulators.
double GatherDotSequential(const double* vals, const size_t* idx,
                           const double* x, size_t n);

/// Σ (a[k]·b[k])·x[idx[k]] — the sparse transport-cost row kernel
/// (a = streamed costs, b = kernel values, x = v gathered at the support).
double GatherDot3(const double* a, const double* b, const size_t* idx,
                  const double* x, size_t n);

// ------------------------------------------- log-domain (LSE) reductions --
//
// The LogTransportKernel hot loops: a streamed log-sum-exp is one max
// reduction followed by one shifted exp-sum reduction. The exp inside is
// the shared PolyExp of simd_exp.h — the SAME polynomial in every tier,
// scalar included — so per-element values are bit-identical across tiers
// and only the sum order differs (max is exactly associative, so the max
// reductions are bit-identical everywhere). PolyExp's domain contract
// applies: elements below ~-708 (including -inf; the "impossible move"
// convention) contribute exactly 0, NaN elements flush to 0.

/// max a[i]; −inf when n = 0.
double MaxReduce(const double* a, size_t n);

/// max (a[i] + b[i]) — the dense LSE max pass over L_row + lv; −inf when
/// n = 0.
double AddMaxReduce(const double* a, const double* b, size_t n);

/// max (vals[k] + x[idx[k]]) — the CSR/CSC mirror of AddMaxReduce; −inf
/// when n = 0.
double GatherAddMaxReduce(const double* vals, const size_t* idx,
                          const double* x, size_t n);

/// Σ PolyExp(a[i] − shift).
double ExpSumShifted(const double* a, double shift, size_t n);

/// Σ PolyExp(a[i] + b[i] − shift) — the dense LSE sum pass (shift = the
/// row max, so every element is ≤ 0 and at least one is exactly 0).
double AddExpSumShifted(const double* a, const double* b, double shift,
                        size_t n);

/// Σ PolyExp(vals[k] + x[idx[k]] − shift) — the CSR/CSC mirror.
double GatherAddExpSumShifted(const double* vals, const size_t* idx,
                              const double* x, double shift, size_t n);

// ----------------------------------------- log-domain elementwise strips --
//
// The dense LogApplyTranspose runs column strips in two passes (max, then
// exp-sum) with these accumulators. Each output element sees the rows in
// ascending order with identical per-element arithmetic in every tier, so
// — like Axpy/AxpyRows — these are bit-identical across ALL tiers.

/// mx[i] = max(mx[i], a[i] + c) — one row's contribution to a column
/// strip's running max.
void AddMaxAccumulate(double c, const double* a, double* mx, size_t n);

/// acc[i] += PolyExp(a[i] + c − shift[i]) — one row's contribution to a
/// column strip's shifted exp-sum (shift = the strip's column maxima).
void AddExpSumAccumulate(double c, const double* a, const double* shift,
                         double* acc, size_t n);

/// out[i] = PolyExp(a[i] + b[i] + shift) — the log-domain ScaleToPlan /
/// TransportCost row kernel (π_ij = e^{lu_i + L_ij + lv_j}); −inf inputs
/// yield exactly 0.
void AddExpWrite(double shift, const double* a, const double* b, double* out,
                 size_t n);

// ----------------------------------------------------------- elementwise --

/// y[i] += c·a[i] (separately rounded multiply and add per element —
/// bit-identical in every tier).
void Axpy(double c, const double* a, double* y, size_t n);

/// y[i] += Σ_r coeffs[r]·base[r·row_stride + i] for i in [0, n) — the
/// dense ApplyTranspose kernel: `num_rows` rows of a row-major matrix
/// accumulated into one output strip, rows in ascending order with the
/// same per-element mul+add chain as Axpy. Vector tiers block two rows
/// per pass (halving the y read/write traffic); the blocking never
/// changes the per-element accumulation order, so every tier — scalar's
/// plain row-at-a-time sweep included — produces bit-identical output.
/// Rows with coefficient exactly 0.0 are skipped without reading the row,
/// in every tier (zero-mass marginals stay cheap, and 0·inf/0·NaN can
/// never poison the accumulator); the skip is part of the primitive's
/// semantics, so the cross-tier bit-identity holds for any row data.
void AxpyRows(const double* coeffs, const double* base, size_t row_stride,
              size_t num_rows, double* y, size_t n);

/// out[i] = a[i]·b[i].
void Hadamard(const double* a, const double* b, double* out, size_t n);

/// out[i] = (s·a[i])·b[i] — the diag(u)·K·diag(v) row kernel.
void ScaledHadamard(double s, const double* a, const double* b, double* out,
                    size_t n);

/// out[k] = (s·vals[k])·x[idx[k]] — the CSR ScaleToPlan row kernel.
void GatherScaledHadamard(double s, const double* vals, const size_t* idx,
                          const double* x, double* out, size_t n);

// ------------------------------------------------ relaxed scaling update --

/// The linear Sinkhorn half-update with the relaxed exponent e = λ/(λ+ε)
/// (Frogner et al., Prop. 4.2; the paper's Eq. 5), fused with its stopping
/// residual. Writes
///
///   next[i] = clamp((marginal[i] / denom[i])^e)
///
/// under the scaling policy: x/0 := 0 (0/0 included); NaN, negative and
/// zero quotients are "no mass" and give 0; +inf and anything above
/// kScalingCeiling give kScalingCeiling. Returns the max relative change
/// max_i |next[i] − prev[i]| / prev[i] against the previous scalings —
/// the linear reading of the log domain's potential change — where an
/// unchanged entry (0 and 0 included) counts 0 and a zero on one side only
/// (mass appearing or disappearing) counts +inf. NaN or negative `prev`
/// entries add nothing beyond that zero rule; 0 when n = 0. `next` must
/// not alias `prev`, `marginal` or `denom`.
///
/// e must lie in (0, 1]. At e = 1 (hard-marginal Sinkhorn) the update is
/// only the quotient and the clamp. Otherwise x^e = x·exp((e−1)·ln x) with
/// (e−1)·ln x carried in two doubles, so ln's rounding is damped by
/// |e − 1| and the exp argument is exact to ~1e-17; for e ∈ [0.5, 1) the
/// result is within 4 ulp and 1e-14 relative of std::pow over
/// |ln x| ≤ 690 (tests/simd_test.cc pins both; 2 ulp measured).
/// Quotients below DBL_MIN (subnormals) give 0 at e < 1, in every tier
/// and FP mode.
double ScalingUpdate(const double* marginal, const double* denom,
                     double exponent, const double* prev, double* next,
                     size_t n);

// ------------------------------------------------- f32 kernel-tier lanes --
//
// Float-STORAGE overloads of the kernel hot loops for the opt-in
// Precision::kFloat32 tier (see precision.h): the same names as the f64
// primitives, so the kernel templates call one spelling at either storage
// scalar. Only the kernel operand is float — marginals, potentials, costs,
// and outputs stay double, and every float lane is widened to double (an
// exact conversion) before it enters any arithmetic, so each overload
// reuses its f64 twin's accumulation recipe verbatim and inherits the same
// determinism contract per (tier, precision). Halving the kernel's
// bytes-per-entry doubles the elements per vector load on exactly the
// loops BENCH_simd_kernel.json shows memory-bound.
//
// The float overloads are function templates constrained to T = float: a
// null pointer literal cannot deduce T, so a call such as
// `Dot(nullptr, nullptr, 0)` still names the f64 primitive unambiguously.

template <typename T>
using FloatOnly = std::enable_if_t<std::is_same_v<T, float>, int>;

template <typename T, FloatOnly<T> = 0>
double Dot(const T* a, const double* b, size_t n);
template <typename T, FloatOnly<T> = 0>
double Dot3(const double* a, const T* b, const double* c, size_t n);
template <typename T, FloatOnly<T> = 0>
double GatherDot(const T* vals, const size_t* idx, const double* x,
                 size_t n);
template <typename T, FloatOnly<T> = 0>
double GatherDot3(const double* a, const T* b, const size_t* idx,
                  const double* x, size_t n);
template <typename T, FloatOnly<T> = 0>
void AxpyRows(const double* coeffs, const T* base, size_t row_stride,
              size_t num_rows, double* y, size_t n);
template <typename T, FloatOnly<T> = 0>
void ScaledHadamard(double s, const T* a, const double* b, double* out,
                    size_t n);
template <typename T, FloatOnly<T> = 0>
void GatherScaledHadamard(double s, const T* vals, const size_t* idx,
                          const double* x, double* out, size_t n);
template <typename T, FloatOnly<T> = 0>
double AddMaxReduce(const T* a, const double* b, size_t n);
template <typename T, FloatOnly<T> = 0>
double AddExpSumShifted(const T* a, const double* b, double shift,
                        size_t n);
template <typename T, FloatOnly<T> = 0>
double GatherAddMaxReduce(const T* vals, const size_t* idx,
                          const double* x, size_t n);
template <typename T, FloatOnly<T> = 0>
double GatherAddExpSumShifted(const T* vals, const size_t* idx,
                              const double* x, double shift, size_t n);
template <typename T, FloatOnly<T> = 0>
void AddMaxAccumulate(double c, const T* a, double* mx, size_t n);
template <typename T, FloatOnly<T> = 0>
void AddExpSumAccumulate(double c, const T* a, const double* shift,
                         double* acc, size_t n);
template <typename T, FloatOnly<T> = 0>
void AddExpWrite(double shift, const T* a, const double* b, double* out,
                 size_t n);

// ------------------------------------------------- CSC column gather pair --
//
// Σ vals[k]·x[idx[k]] over one CSC column — the sparse transpose-apply
// kernel, and the one place the two precisions deliberately differ:
//  - double: GatherDotSequential, so at full support the sparse transpose
//    is bit-identical to the dense one (dense ≡ CSR at cutoff 0);
//  - float: the lane-parallel GatherDot. The f32 tier does not carry the
//    dense ≡ CSR contract, so it is free to break the latency-bound chain
//    — which is where the f32 sparse_applyT speedup comes from. Each
//    column is still one fixed-recipe reduction, deterministic per
//    (tier, f32).
double GatherDotColumn(const double* vals, const size_t* idx, const double* x,
                       size_t n);
template <typename T, FloatOnly<T> = 0>
double GatherDotColumn(const T* vals, const size_t* idx, const double* x,
                       size_t n);

namespace detail {

/// The dispatch table one ISA translation unit fills in.
struct SimdOps {
  double (*dot)(const double*, const double*, size_t);
  double (*dot3)(const double*, const double*, const double*, size_t);
  double (*sum)(const double*, size_t);
  double (*gather_dot)(const double*, const size_t*, const double*, size_t);
  double (*gather_dot3)(const double*, const double*, const size_t*,
                        const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*axpy_rows)(const double*, const double*, size_t, size_t, double*,
                    size_t);
  void (*hadamard)(const double*, const double*, double*, size_t);
  void (*scaled_hadamard)(double, const double*, const double*, double*,
                          size_t);
  void (*gather_scaled_hadamard)(double, const double*, const size_t*,
                                 const double*, double*, size_t);
  double (*max_reduce)(const double*, size_t);
  double (*add_max_reduce)(const double*, const double*, size_t);
  double (*gather_add_max_reduce)(const double*, const size_t*, const double*,
                                  size_t);
  double (*exp_sum_shifted)(const double*, double, size_t);
  double (*add_exp_sum_shifted)(const double*, const double*, double, size_t);
  double (*gather_add_exp_sum_shifted)(const double*, const size_t*,
                                       const double*, double, size_t);
  void (*add_max_accumulate)(double, const double*, double*, size_t);
  void (*add_exp_sum_accumulate)(double, const double*, const double*,
                                 double*, size_t);
  void (*add_exp_write)(double, const double*, const double*, double*,
                        size_t);
  double (*scaling_update)(const double*, const double*, double,
                           const double*, double*, size_t);
  // f32 kernel-tier lanes (float storage, double accumulation).
  double (*dot_f32)(const float*, const double*, size_t);
  double (*dot3_f32)(const double*, const float*, const double*, size_t);
  double (*gather_dot_f32)(const float*, const size_t*, const double*, size_t);
  double (*gather_dot3_f32)(const double*, const float*, const size_t*,
                            const double*, size_t);
  void (*axpy_rows_f32)(const double*, const float*, size_t, size_t, double*,
                        size_t);
  void (*scaled_hadamard_f32)(double, const float*, const double*, double*,
                              size_t);
  void (*gather_scaled_hadamard_f32)(double, const float*, const size_t*,
                                     const double*, double*, size_t);
  double (*add_max_reduce_f32)(const float*, const double*, size_t);
  double (*add_exp_sum_shifted_f32)(const float*, const double*, double,
                                    size_t);
  double (*gather_add_max_reduce_f32)(const float*, const size_t*,
                                      const double*, size_t);
  double (*gather_add_exp_sum_shifted_f32)(const float*, const size_t*,
                                           const double*, double, size_t);
  void (*add_max_accumulate_f32)(double, const float*, double*, size_t);
  void (*add_exp_sum_accumulate_f32)(double, const float*, const double*,
                                     double*, size_t);
  void (*add_exp_write_f32)(double, const float*, const double*, double*,
                            size_t);
};

/// Per-ISA tables; null when the TU was compiled without that ISA (wrong
/// architecture or missing compiler flags). CPU support is checked
/// separately at dispatch time.
const SimdOps* GetScalarOps();
const SimdOps* GetAvx2Ops();
const SimdOps* GetAvx512Ops();
const SimdOps* GetNeonOps();

}  // namespace detail

}  // namespace otclean::linalg::simd

#endif  // OTCLEAN_LINALG_SIMD_H_
