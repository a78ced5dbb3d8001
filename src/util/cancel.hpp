// Cooperative cancellation with wall-clock deadlines.
//
// A CancelToken is a shared handle onto one cancellation state: anything
// holding a copy can request cancellation (a SIGINT handler, a test
// hook) and anything polling it observes the request at its next poll
// point.  Cancellation is *cooperative* — nothing is ever
// killed mid-operation; work units poll at natural safe points (kernel
// shard boundaries, conversion-engine tile requests, suite row/arm
// starts) and unwind by throwing a typed error, so cancellation latency
// is bounded by the coarsest poll granularity while every invariant the
// deterministic pipeline relies on (shard merges, journal framing) stays
// intact.
//
// Two ways out of poll():
//   * CancelledError — an external request (user signal, suite-level
//     deadline): the work unit is abandoned, not failed; the suite
//     runner leaves such arms unrecorded so a resumed sweep re-runs
//     them from scratch, bit-identically.
//   * TimeoutError — this token's own deadline expired (a per-arm
//     --arm-timeout): a real typed failure, recorded like any other
//     arm error.
//
// Tokens chain: a child token (one suite arm) polls its own state first,
// then its parent (the whole sweep), so one suite-wide request fans out
// to every arm without touching each token.  Deadlines are seen the
// same way: every cancelled()/reason()/poll() compares the clock against
// each armed deadline in the chain.  All state is in relaxed atomics —
// request() is async-signal-safe, and polling is a couple of loads plus
// a clock read on the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "util/types.hpp"

namespace nmdt {

/// Why a token was cancelled (kNone = not cancelled).
enum class CancelReason : int {
  kNone = 0,
  kUser,           ///< external request (SIGINT/SIGTERM, test hook)
  kDeadline,       ///< this token's own deadline expired (per-arm timeout)
  kSuiteDeadline,  ///< the suite-level deadline expired
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A fresh, independent cancellation state.
  CancelToken() : state_(std::make_shared<State>()) {}

  /// A child token: polls its own state, then every ancestor's.
  static CancelToken child_of(const CancelToken& parent);

  /// Request cancellation.  Async-signal-safe (two relaxed atomic
  /// stores); the first request wins and later ones are ignored.
  void request(CancelReason reason) const;

  /// Arm this token's deadline: poll() throws TimeoutError (reason
  /// kDeadline) or CancelledError (reason kSuiteDeadline) once Clock
  /// passes `at`.  cancelled() and reason() observe the expiry too, so a
  /// driver loop can notice a passed deadline without polling.
  void set_deadline(Clock::time_point at, CancelReason reason) const;

  /// True once this token or any ancestor is cancelled or past its
  /// deadline.  Does not throw.
  bool cancelled() const;

  /// The effective reason (own request/deadline first, then ancestors);
  /// kNone when not cancelled.
  CancelReason reason() const;

  /// Throw the typed error for the current cancellation state, if any:
  /// TimeoutError for kDeadline, CancelledError for kUser and
  /// kSuiteDeadline.  The designated safe point of cooperative
  /// cancellation — cheap enough for per-tile granularity.
  void poll() const;

 private:
  struct State {
    std::atomic<int> reason{0};
    /// Deadline as nanoseconds since Clock epoch; 0 = unarmed.
    std::atomic<i64> deadline_ns{0};
    std::atomic<int> deadline_reason{0};
    std::shared_ptr<const State> parent;
  };

  /// Reason for `s` alone (request or expired deadline), ignoring
  /// ancestors.
  static CancelReason own_reason(const State& s);

  std::shared_ptr<State> state_;
};

/// RAII thread-local installation of the token work on this thread
/// should poll.  Scopes nest (the previous token is restored on
/// destruction), and `run_indexed` re-installs the caller's current
/// token on its pool workers, so deep callees — the conversion engine's
/// tile loop, kernel shard bodies — can poll without any parameter
/// threading.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken& token);
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* prev_;
};

/// The token installed on this thread, or nullptr outside any scope.
const CancelToken* current_cancel_token();

/// Poll the thread's installed token; a no-op when none is installed
/// (library code stays cancellation-agnostic unless a caller opted in).
void poll_cancellation();

}  // namespace nmdt
