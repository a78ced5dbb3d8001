// Crash-isolated worker processes: a Supervisor that forks N workers,
// dispatches tasks over the CRC-framed pipe protocol (proc/frame.hpp),
// and monitors them with heartbeat pings and waitpid reaping.
//
// Failure model.  A worker that exits abnormally (SIGSEGV / SIGKILL /
// abort), breaches its setrlimit(RLIMIT_AS) cap, misses its heartbeat
// deadline, or emits a corrupt result frame is killed and reaped; its
// in-flight task is re-dispatched to a fresh worker with capped
// exponential backoff.  A task whose worker crashed kMaxWorkerRetries
// times is *quarantined*: it completes with a typed WorkerError
// outcome (CLI exit code 8) instead of being retried forever — one
// poison arm can never wedge a sweep.  Handler exceptions are NOT
// crashes: they travel back as typed error descriptions and are never
// retried (the handler is deterministic; rerunning would just fail
// identically).
//
// Worker lifecycle (the DESIGN.md state machine): fork() → kHello
// (healthy) → heartbeats every heartbeat_interval_ms → a worker whose
// last heartbeat is older than heartbeat_timeout_ms is *suspect* and
// SIGKILLed → reaped via waitpid → respawned.  Workers are forked
// without exec: the child inherits the handler closure (and the specs
// / config it captures) as live C++ objects, so task payloads carry
// only small coordinates — nothing to serialize, nothing to drift from
// the in-process run, which is what makes cross-process bit-identity
// trivial (the worker computes the same pure function on the same
// objects).
//
// Fork safety: workers are forked from the constructor's calling
// thread (fork early, before the caller spawns its own threads);
// respawns happen on the supervisor's event-loop thread.  The child
// immediately uninstalls any inherited TraceSession (a lock-free
// pointer CAS), resets signal dispositions, and communicates only
// through its two pipe ends; it leaves via _exit(), never flushing
// inherited stdio.
//
// Traces: a proc.supervise span for the supervisor lifetime and one
// proc.task span per dispatched task.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace nmdt::proc {

/// Crash-retry budget: a task whose worker dies this many times is
/// quarantined as WorkerError (mirrors fault::kMaxRetries in spirit —
/// bounded recovery, then a typed surfaced failure).
inline constexpr int kMaxWorkerRetries = 3;
/// Ceiling of the re-dispatch backoff after a crash.
inline constexpr double kBackoffCapMs = 250.0;

struct ProcOptions {
  int workers = 2;
  /// RLIMIT_AS cap per worker in MiB; 0 = unlimited.  A breach surfaces
  /// as bad_alloc (typed handler error) or a crash (retry path).
  i64 worker_mem_mb = 0;
  double heartbeat_interval_ms = 20.0;
  /// A worker silent for this long is killed and its task re-dispatched.
  double heartbeat_timeout_ms = 2000.0;
  /// Re-dispatch backoff after the n-th crash: base * 2^(n-1), capped
  /// at kBackoffCapMs.
  double backoff_base_ms = 5.0;
};

/// Runs in the *worker process*: one task in, one result payload out.
/// Throwing a typed exception yields a typed error outcome (it is NOT
/// a crash and is never retried).
using TaskHandler =
    std::function<std::string(u8 kind, u64 key, const std::string& payload)>;

struct TaskOutcome {
  bool ok = false;
  std::string payload;  ///< handler result when ok
  std::string error;    ///< describe_exception() string when !ok
  int crashes = 0;      ///< worker deaths this task survived (or didn't)
};

struct Completion {
  u64 id = 0;
  u8 kind = 0;
  u64 key = 0;
  TaskOutcome outcome;
};

class Supervisor {
 public:
  /// Forks the initial workers on the calling thread, then starts the
  /// event loop.  Fork the supervisor before spawning other threads
  /// where possible (see fork-safety notes above).
  Supervisor(ProcOptions opts, TaskHandler handler);
  ~Supervisor();  ///< shutdown() if still running

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Enqueue a task; returns its id.  `key` feeds the worker_abort /
  /// worker_hang fault draws (mixed with the attempt index) and is
  /// echoed in the completion.  Tasks sharing an `affinity` value
  /// prefer the worker that last ran that affinity — the suite runner
  /// keys it by row so a worker reuses its cached plan.
  u64 submit(u8 kind, u64 key, std::string payload, u64 affinity = 0);

  /// Block up to timeout_ms for the next completion (any submitted
  /// task); nullopt on timeout.  Single-consumer: the orchestration
  /// loop owns this end.
  std::optional<Completion> wait_completion(double timeout_ms);

  /// Synchronous submit + wait for that one task (the service-backend
  /// path).  Thread-safe; concurrent callers each get their own task's
  /// outcome.  Never consumes wait_completion() completions.
  TaskOutcome call(u8 kind, u64 key, std::string payload);

  /// Live worker pids — the chaos tests' kill -9 target.
  std::vector<i64> worker_pids() const;

  /// Stop dispatching, ask workers to exit, SIGKILL stragglers, reap
  /// everything.  In-flight tasks complete as WorkerError.  Idempotent.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nmdt::proc
