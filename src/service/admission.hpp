// Admission control for the SpMM service: a bounded request queue with
// load shedding and per-tenant token-bucket quotas.
//
// The server never queues unboundedly — when the queue is full, or a
// tenant is over its rate, the request is *shed* at submit time with a
// typed OverloadError carrying a retry_after_ms hint, leaving the
// in-flight work untouched (fail fast at the edge, never fall over in
// the middle).  The hint is honest: for quota sheds it is the time
// until the bucket refills one token; for queue sheds it is the queue
// depth times an EWMA of recent batch service time.
//
// The queue drains even after close(): shutdown rejects *new* work but
// every accepted ticket is still served exactly once (the graceful
// drain half of the shutdown state machine, service/server.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "service/protocol.hpp"
#include "util/cancel.hpp"

namespace nmdt::service {

/// One admitted request plus its admission timestamp and the per-request
/// cancellation token (a child of the server token, deadline armed at
/// admission).
struct Ticket {
  Request req;
  std::chrono::steady_clock::time_point admitted_at{};
  CancelToken cancel;
  /// Absolute deadline armed on `cancel` (nullopt = none); a coalescing
  /// worker takes the min across a batch.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Classic token bucket: capacity `burst`, refilled at `rate_per_s`.
/// Time is a parameter (not an internal clock read) so tests drive it
/// deterministically.
class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  TokenBucket(double rate_per_s, double burst, Clock::time_point now);

  /// Take one token if available; otherwise false with *retry_after_ms
  /// set to the time until the next token accrues.
  bool try_take(Clock::time_point now, i64* retry_after_ms);

  double tokens_at(Clock::time_point now) const;

 private:
  double rate_;
  double burst_;
  mutable double tokens_;
  mutable Clock::time_point last_;
};

/// Per-tenant quota map.  rate_per_s <= 0 disables quotas entirely
/// (every request admitted).  Buckets are created on first sight of a
/// tenant, all with the same rate/burst.
class TenantQuotas {
 public:
  TenantQuotas(double rate_per_s, double burst);

  /// Admit one request for `tenant` at `now`; false (+hint) when the
  /// tenant's bucket is empty.
  bool try_admit(const std::string& tenant, TokenBucket::Clock::time_point now,
                 i64* retry_after_ms);

  bool enabled() const { return rate_ > 0.0; }

 private:
  double rate_;
  double burst_;
  std::mutex mu_;
  std::map<std::string, TokenBucket> buckets_;
};

/// Bounded MPMC ticket queue.  try_push never blocks (full = shed);
/// pop blocks until a ticket, or returns nullopt once closed AND empty
/// (pending tickets are always drained first).
class AdmissionQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// `service_hint_ms` seeds the EWMA behind the queue-full retry hint:
  /// until real batches complete, retry_after_ms is depth × this value,
  /// so an operator who knows the workload (e.g. ~2 ms small-K requests
  /// vs ~200 ms planning-heavy ones) can make even the *first* shed
  /// hints honest instead of inheriting a one-size guess.
  explicit AdmissionQueue(usize capacity, double service_hint_ms = 10.0);

  /// Enqueue, or return false with *retry_after_ms = depth × EWMA
  /// service time (the honest "come back when the backlog has drained"
  /// hint; at least 1 ms so clients never busy-spin).
  bool try_push(Ticket&& t, i64* retry_after_ms);

  /// Blocking pop; nullopt once close() was called and the queue is
  /// empty.
  std::optional<Ticket> pop();

  /// Non-blocking: pop up to `max` more tickets satisfying `match`
  /// (scanning from the front, preserving order among matches) — the
  /// coalescing hook.  Non-matching tickets keep their positions.
  std::vector<Ticket> pop_matching(const std::function<bool(const Ticket&)>& match,
                                   usize max);

  /// Stop accepting (try_push sheds) and wake blocked poppers; already
  /// queued tickets still drain through pop().
  void close();

  usize depth() const;

  /// Feed the EWMA behind the queue-full retry hint (call with each
  /// completed batch's service time).
  void note_service_ms(double ms);

  /// Current EWMA service-time estimate (the configured hint until the
  /// first note_service_ms sample arrives) — exposed for tests.
  double ewma_service_ms() const;

 private:
  const usize capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ticket> q_;
  bool closed_ = false;
  double ewma_service_ms_;  ///< seeded by the ctor hint, then EWMA-tracked
};

}  // namespace nmdt::service
