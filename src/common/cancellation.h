#ifndef OTCLEAN_COMMON_CANCELLATION_H_
#define OTCLEAN_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <string>

#include "common/status.h"

namespace otclean {

/// A one-shot cooperative stop signal. The owner (a caller, or the
/// RepairScheduler on behalf of `Cancel(job_id)`) fires it from any thread;
/// the solver layers poll it at safe points — per scaling-loop iteration,
/// per FastOTClean outer step, and between chunk
/// executions inside ThreadPool dispatches — and abort with
/// `StatusCode::kCancelled`. Firing is sticky: a token cannot be reset, so
/// one token serves exactly one unit of work.
///
/// Polling never mutates solver state: a check either aborts the solve or
/// leaves it bit-identical to a run without the token.
///
/// Deliberately lock-free: the one mutable field is a std::atomic, so
/// under the TSA regime (common/thread_annotations.h) there is no
/// capability to annotate — Cancel/cancelled() are safe from any thread
/// with no mutex to hold, and the pool polls the raw flag() pointer at
/// chunk granularity without taking any lock.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Fires the signal. Safe to call from any thread, any number of times.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// The raw flag, for layers (linalg::ThreadPool) that poll a plain
  /// atomic without depending on this header.
  const std::atomic<bool>* flag() const { return &cancelled_; }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A monotonic-clock wall deadline. Default-constructed deadlines are
/// infinite (never expire), so options structs can carry one by value with
/// zero cost on the common path. Composable via `Earliest` — the scheduler
/// combines a per-job deadline with its scheduler-wide default that way.
class Deadline {
 public:
  /// Infinite — never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` from now (monotonic). Non-positive values produce an
  /// already-expired deadline; callers that want to reject those loudly
  /// validate before constructing (see RepairScheduler / the CLI).
  static Deadline After(double seconds) {
    Deadline d;
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline AfterMillis(int64_t millis) {
    return After(static_cast<double>(millis) * 1e-3);
  }

  bool infinite() const { return !when_.has_value(); }

  bool expired() const {
    return when_.has_value() && Clock::now() >= *when_;
  }

  /// Seconds until expiry: +infinity when infinite, <= 0 once expired.
  double remaining_seconds() const {
    if (!when_.has_value()) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(*when_ - Clock::now()).count();
  }

  /// The sooner of two deadlines (an infinite deadline never wins).
  static Deadline Earliest(const Deadline& a, const Deadline& b) {
    if (a.infinite()) return b;
    if (b.infinite()) return a;
    Deadline d;
    d.when_ = *a.when_ < *b.when_ ? *a.when_ : *b.when_;
    return d;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> when_;
};

/// The one stop-check every cooperative layer shares: cancellation wins
/// over deadline expiry, and the returned message names the checking layer
/// so an aborted batch job reads "RunSinkhornScaling: cancelled", not just
/// "cancelled". Costs one relaxed-ish atomic load (plus a clock read only
/// when a finite deadline is set) on the non-aborting path.
inline Status CheckStop(const CancellationToken* token, const Deadline& deadline,
                        const char* where) {
  if (token != nullptr && token->cancelled()) {
    return Status::Cancelled(std::string(where) + ": cancelled by caller");
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded(std::string(where) + ": deadline exceeded");
  }
  return Status::OK();
}

}  // namespace otclean

#endif  // OTCLEAN_COMMON_CANCELLATION_H_
