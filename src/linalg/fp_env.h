#ifndef OTCLEAN_LINALG_FP_ENV_H_
#define OTCLEAN_LINALG_FP_ENV_H_

#include <cstdint>

namespace otclean::linalg {

/// The calling thread's floating-point *control* mode: the MXCSR control
/// bits (exception masks, rounding, FTZ, DAZ) on x86-64, FPCR on AArch64,
/// and 0 on other targets. The sticky exception status flags are not part
/// of it, so two threads running in the same mode always compare equal.
using FpMode = uint64_t;

/// The calling thread's current control mode.
FpMode CurrentFpMode();

/// Makes `mode` the calling thread's control mode. Exception status flags
/// are left as they are. A no-op on targets without a control register.
void SetFpMode(FpMode mode);

/// RAII scope that flushes subnormals on the calling thread: MXCSR FTZ|DAZ
/// on x86-64, FPCR.FZ on AArch64, nothing elsewhere. A subnormal result is
/// written as 0 and a subnormal operand reads as 0, so no operation pays
/// the microcode assist a subnormal costs (tens of cycles per element on
/// x86). The destructor clears only the bits this scope turned on — a
/// caller already in flush mode stays in it — and never touches the
/// exception status flags raised meanwhile.
///
/// Numerics: a value can only change when an intermediate is below the
/// smallest normal double (~2.2e-308). The Sinkhorn engine's kernel
/// products accumulate into sums far above that, where a subnormal addend
/// is below half an ulp and rounds away anyway; see "The TransportKernel
/// design" in README.md for what this does and does not promise.
class ScopedFlushSubnormals {
 public:
  ScopedFlushSubnormals();
  ~ScopedFlushSubnormals();
  ScopedFlushSubnormals(const ScopedFlushSubnormals&) = delete;
  ScopedFlushSubnormals& operator=(const ScopedFlushSubnormals&) = delete;

 private:
  FpMode turned_on_;  ///< flush bits that were off on entry.
};

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_FP_ENV_H_
