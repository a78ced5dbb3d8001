// SpMM-as-a-service: the long-lived request server behind
// examples/nmdt_serve.
//
// Architecture (the scheduler/worker split of the async-SGD exemplar,
// PAPERS.md): a submit edge that either admits a request into a
// bounded queue or sheds it with a typed OverloadError (admission.hpp:
// queue bound + per-tenant token buckets), a pool of worker threads
// that pop tickets, and a shared concurrency-hardened PlanCache so a
// stream of requests against the same matrix pays the expensive
// plan/convert step once — the paper's amortization argument turned
// into a resident service tier.
//
// Request coalescing: a worker that pops a ticket also claims every
// queued ticket with the same (matrix, kernel, precision) coalescing
// key (up to coalesce_max / coalesce_max_k).  Every request — solo,
// coalesced, or in an isolated worker process — then runs through one
// execute-and-respond function (execute_group, server.cpp): resolve A,
// look up the plan, concatenate the members' B panels column-wise, run
// ONE kernel execution against the one resident plan, and split C back
// per request.  Each column of C = A·B depends only on its own column
// of B, accumulated in A's non-zero order, so every coalesced request's
// result stays bit-identical to a solo run (pinned by the service
// tests).  If the batched execution fails (one member's deadline
// expired mid-run, a fault surfaced), the group degrades gracefully:
// each member re-runs individually under its own CancelToken so one
// victim cannot take its neighbours down.
//
// Per-request deadlines: every admitted ticket carries a CancelToken
// child of the server token with its deadline armed at admission; the
// kernels poll it cooperatively, so an expired request unwinds as a
// typed TimeoutError *response* — never a stuck worker, never a dead
// process.
//
// Shutdown state machine: kRunning → (begin_shutdown) → kDraining —
// submit() sheds new requests with OverloadError("shutting down",
// retry_after_ms = -1) while workers drain every already-admitted
// ticket — → (drain joins the workers) → kStopped.  The invariant the
// chaos suite pins: every admitted request gets exactly one response,
// shed requests get exactly one OverloadError response, and the
// process exits only after the queue is empty.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "proc/supervisor.hpp"
#include "service/admission.hpp"
#include "service/protocol.hpp"

namespace nmdt::service {

struct ServerOptions {
  int workers = 2;
  usize queue_capacity = 64;
  /// Per-tenant token-bucket refill rate (requests/second); <= 0
  /// disables quotas.
  double tenant_rate = 0.0;
  double tenant_burst = 8.0;
  /// Deadline applied to requests that do not carry their own; <= 0
  /// means no default deadline.
  double default_deadline_ms = 0.0;
  i64 plan_cache_bytes = PlanCache::kDefaultByteBudget;
  /// TTL of cached plans and of resolved matrices (0 disables) — bounds
  /// how long a daemon serves a matrix file that changed on disk.
  double plan_ttl_ms = 0.0;
  /// Coalescing bounds: max requests per batch and max combined B
  /// columns.  coalesce_max <= 1 disables coalescing.
  int coalesce_max = 4;
  index_t coalesce_max_k = 256;
  /// Intra-kernel shard threads per execution (SpmmConfig::jobs).
  int jobs = 1;
  /// Degrade unrecovered conversion faults to the reference CSR kernel
  /// (typed FaultError response when false).
  bool fault_fallback = true;
  /// Seed for the admission queue's service-time EWMA in ms (> 0): the
  /// retry_after_ms hint on queue-full sheds before any real batch has
  /// completed.  Tune to the expected request cost so cold-start hints
  /// are honest.
  double queue_hint_ms = 10.0;
  /// Execute kernels in N supervised worker *processes* instead of the
  /// worker threads (opt-in crash isolation, src/proc): a SIGSEGV /
  /// OOM-kill / wedge takes down one request's worker, which is
  /// respawned and the work retried; a poison request is quarantined as
  /// a typed WorkerError response instead of killing the daemon.
  /// 0 = classic in-process execution.  Forces coalesce_max = 1 (each
  /// ticket is one supervised task).
  int isolate_workers = 0;
  /// RLIMIT_AS per isolated worker in MiB (0 = unlimited).
  i64 worker_mem_mb = 0;
};

struct ServerStats {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 shed_queue_full = 0;
  u64 shed_over_quota = 0;
  u64 shed_shutdown = 0;
  u64 completed_ok = 0;
  u64 completed_error = 0;
  u64 coalesced_batches = 0;   ///< batches serving more than one request
  u64 coalesced_requests = 0;  ///< requests served inside such batches
};

/// Responses are delivered through this sink, possibly from several
/// worker threads concurrently — the sink serializes (nmdt_serve wraps
/// stdout in a mutex).
using ResponseSink = std::function<void(const Response&)>;

/// Resolve a request's matrix spec: "gen:<kind>:<rows>x<cols>:<density>
/// :<seed>" (kinds: uniform, powerlaw_rows, powerlaw_cols), a .mtx
/// path, or a .bin path.  Throws ParseError on malformed specs — the
/// same function the tests use to build the batch-mode reference side.
Csr load_matrix_spec(const std::string& spec);

class MatrixLru;

class SpmmServer {
 public:
  SpmmServer(ServerOptions opts, ResponseSink sink);
  ~SpmmServer();  ///< begin_shutdown() + drain() if still running

  SpmmServer(const SpmmServer&) = delete;
  SpmmServer& operator=(const SpmmServer&) = delete;

  /// Launch the worker pool.  Tickets submitted before start() queue up
  /// and are served once workers exist (tests use this to stage
  /// deterministic coalescing batches).
  void start();

  /// Admission edge.  Every call produces exactly one response through
  /// the sink, now (shed: OverloadError with retry_after_ms; parse-time
  /// deadline of 0 is still admitted and times out in the worker) or
  /// later (worker).  Returns true when the request was admitted.
  bool submit(Request req);

  /// Reject new submissions from now on; already-admitted tickets keep
  /// draining.  Idempotent.  Safe to call from any thread (but not from
  /// a signal handler — signal handlers should request() a copy of
  /// cancel_token() or set a flag the main loop acts on).
  void begin_shutdown();

  /// Block until every admitted ticket has been served and the workers
  /// have exited.  Implies begin_shutdown().
  void drain();

  /// Cancel in-flight work (kUser): pending and running tickets unwind
  /// cooperatively and respond CancelledError.  For the "second SIGTERM
  /// means now" escalation path.
  void cancel_all();

  /// Copyable server-wide token; every per-request token chains to it.
  CancelToken cancel_token() const { return cancel_; }

  ServerStats stats() const;
  PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }
  usize queue_depth() const { return queue_.depth(); }

 private:
  enum class State : int { kRunning = 0, kDraining, kStopped };

  void worker_loop();
  /// Serve one coalescing group through execute_group (server.cpp):
  /// one batched run, degrading to per-member solo runs if it throws.
  /// Always emits exactly one response per ticket.
  void process_group(std::vector<Ticket> group);
  void finish_ok(const Response& resp);
  void finish_error(const Ticket& t, const std::exception& e, int coalesced_with);
  void respond(const Response& r);

  ServerOptions opts_;
  ResponseSink sink_;
  std::mutex sink_mu_;
  CancelToken cancel_;
  AdmissionQueue queue_;
  TenantQuotas quotas_;
  PlanCache plan_cache_;
  std::atomic<int> state_{static_cast<int>(State::kRunning)};
  std::vector<std::thread> workers_;
  /// Non-null in isolate_workers mode; created in start() before the
  /// worker threads exist (fork-before-threads, proc/supervisor.hpp).
  std::unique_ptr<proc::Supervisor> supervisor_;

  /// Resolved matrices keyed by spec string (an LRU, server.cpp).
  std::unique_ptr<MatrixLru> matrices_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace nmdt::service
