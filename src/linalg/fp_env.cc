#include "linalg/fp_env.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

namespace otclean::linalg {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
// MXCSR: bits 0-5 are the sticky exception status flags; bits 6-15 are
// control (6 = DAZ, 7-12 exception masks, 13-14 rounding, 15 = FTZ).
constexpr uint32_t kControlBits = 0xFFC0u;
constexpr FpMode kFlushBits = (1u << 15) | (1u << 6);  // FTZ | DAZ

FpMode ReadControl() { return _mm_getcsr() & kControlBits; }
void WriteControl(FpMode mode) {
  const uint32_t status = _mm_getcsr() & ~kControlBits;
  _mm_setcsr(status | (static_cast<uint32_t>(mode) & kControlBits));
}
#elif defined(__aarch64__) && defined(__GNUC__)
// FPCR holds control bits only (the status flags live in FPSR).
constexpr FpMode kFlushBits = FpMode{1} << 24;  // FZ

FpMode ReadControl() {
  uint64_t fpcr;
  __asm__ __volatile__("mrs %0, fpcr" : "=r"(fpcr));
  return fpcr;
}
void WriteControl(FpMode mode) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(mode));
}
#else
constexpr FpMode kFlushBits = 0;

FpMode ReadControl() { return 0; }
void WriteControl(FpMode) {}
#endif

}  // namespace

FpMode CurrentFpMode() { return ReadControl(); }

void SetFpMode(FpMode mode) {
  if (mode != ReadControl()) WriteControl(mode);
}

ScopedFlushSubnormals::ScopedFlushSubnormals()
    : turned_on_(kFlushBits & ~ReadControl()) {
  if (turned_on_ != 0) WriteControl(ReadControl() | turned_on_);
}

ScopedFlushSubnormals::~ScopedFlushSubnormals() {
  if (turned_on_ != 0) WriteControl(ReadControl() & ~turned_on_);
}

}  // namespace otclean::linalg
