// nmdt_serve: SpMM-as-a-service over JSON lines on stdin/stdout.
//
//   ./example_nmdt_serve --workers 2 --queue-capacity 64 < requests.jsonl
//   echo '{"id":"r1","matrix":"gen:uniform:256x256:0.02:1","k":16}' | ./example_nmdt_serve
//
// One request per input line, one JSON response line per request (see
// src/service/protocol.hpp for the schema).  Admission control sheds
// over-capacity and over-quota requests with typed OverloadError
// responses carrying a retry_after_ms hint; admitted requests are
// served by a worker pool sharing one concurrency-hardened PlanCache,
// with concurrent requests against the same (matrix, kernel, precision)
// coalesced into one kernel execution.  Per-request deadlines unwind as
// TimeoutError responses; unrecovered conversion faults degrade to the
// reference CSR kernel (or a typed FaultError response with
// --no-fault-fallback).
//
// Graceful shutdown: SIGTERM/SIGINT (or stdin EOF) stops admission,
// drains every in-flight and queued request, flushes the --metrics
// snapshot, and exits 0.  A second signal escalates: in-flight work is
// cancelled cooperatively and answered with CancelledError responses —
// still exactly one response per accepted request, still exit 0.
// SIGHUP flushes a live --metrics snapshot without draining (poll the
// daemon's counters mid-run).  Operational errors on a single request
// never kill the daemon; only a malformed command line exits non-zero
// (the README exit-code table).
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/line_reader.hpp"

using namespace nmdt;
using namespace nmdt::service;

namespace {

/// Signal → main-loop handshake.  The handler only touches lock-free
/// state: a flag the read loop polls (SA_RESTART is off, so the blocked
/// stdin read returns early), and — on the second signal — the server's
/// CancelToken, whose request() is a lone CAS.
std::atomic<int> g_signals{0};

CancelToken& escalation_token() {
  static CancelToken token;
  return token;
}

extern "C" void on_shutdown_signal(int) {
  if (g_signals.fetch_add(1, std::memory_order_relaxed) >= 1) {
    escalation_token().request(CancelReason::kUser);
  }
}

/// SIGHUP → "flush a live metrics snapshot now, keep serving".  The
/// handler only sets this flag; a housekeeping thread does the actual
/// file write (write_json_file is nowhere near async-signal-safe).
std::atomic<bool> g_flush_metrics{false};

extern "C" void on_flush_signal(int) {
  g_flush_metrics.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  (void)escalation_token();  // construct before any signal can arrive
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa{};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt the blocking stdin read
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  struct sigaction hup{};
  hup.sa_handler = on_flush_signal;
  sigemptyset(&hup.sa_mask);
  // SA_RESTART on purpose: a flush must NOT interrupt the blocking
  // stdin read — the daemon keeps serving, only the snapshot changes.
  hup.sa_flags = SA_RESTART;
  sigaction(SIGHUP, &hup, nullptr);
#else
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
#endif
}

/// The one statement of every ServerOptions default: options_from falls
/// back to it and --help quotes it.
const ServerOptions kDefaults{};

/// `help` followed by " (default <value>)".
template <class T>
std::string with_default(const std::string& help, T value) {
  std::ostringstream os;
  os << help << " (default " << value << ")";
  return os.str();
}

ServerOptions options_from(const CliParser& cli) {
  const ServerOptions& d = kDefaults;
  ServerOptions opts;
  opts.workers = static_cast<int>(cli.get_int("workers", d.workers));
  opts.queue_capacity = static_cast<usize>(std::max<i64>(
      1, cli.get_int("queue-capacity", static_cast<i64>(d.queue_capacity))));
  opts.tenant_rate = cli.get_double("tenant-rate", d.tenant_rate);
  opts.tenant_burst = cli.get_double("tenant-burst", d.tenant_burst);
  opts.default_deadline_ms = cli.get_double("default-deadline-ms", d.default_deadline_ms);
  opts.plan_cache_bytes = cli.get_int("plan-cache-mb", d.plan_cache_bytes >> 20) << 20;
  opts.plan_ttl_ms = cli.get_double("plan-ttl-ms", d.plan_ttl_ms);
  opts.coalesce_max = static_cast<int>(cli.get_int("coalesce-max", d.coalesce_max));
  opts.coalesce_max_k =
      static_cast<index_t>(cli.get_int("coalesce-max-k", d.coalesce_max_k));
  opts.jobs = static_cast<int>(cli.get_int("jobs", d.jobs));
  opts.fault_fallback = !cli.has("no-fault-fallback");
  opts.queue_hint_ms = cli.get_double("queue-hint-ms", d.queue_hint_ms);
  opts.isolate_workers = static_cast<int>(cli.get_int("isolate-workers", d.isolate_workers));
  opts.worker_mem_mb = cli.get_int("worker-mem-mb", d.worker_mem_mb);
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  const ServerOptions& d = kDefaults;
  cli.declare("workers",
              with_default("worker threads serving admitted requests", d.workers));
  cli.declare("queue-capacity",
              with_default("bounded admission queue depth; overflow sheds with "
                           "OverloadError",
                           d.queue_capacity));
  cli.declare("tenant-rate",
              with_default("per-tenant token-bucket refill, requests/second; 0 "
                           "disables quotas",
                           d.tenant_rate));
  cli.declare("tenant-burst",
              with_default("per-tenant token-bucket capacity", d.tenant_burst));
  cli.declare("default-deadline-ms",
              with_default("deadline for requests without their own; 0 = none",
                           d.default_deadline_ms));
  cli.declare("plan-cache-mb", with_default("PlanCache byte budget in MiB",
                                            d.plan_cache_bytes >> 20));
  cli.declare("plan-ttl-ms",
              with_default("evict cached plans and re-read resolved matrices older "
                           "than this; 0 = no TTL",
                           d.plan_ttl_ms));
  cli.declare("coalesce-max",
              with_default("max concurrent same-key requests batched into one "
                           "kernel execution; 1 disables coalescing",
                           d.coalesce_max));
  cli.declare("coalesce-max-k",
              with_default("max combined B columns per batch", d.coalesce_max_k));
  cli.declare("jobs",
              with_default("intra-kernel shard threads per execution", d.jobs));
  cli.declare("queue-hint-ms",
              with_default("expected per-request service time seeding the "
                           "admission EWMA, so cold-start retry_after_ms hints "
                           "are honest",
                           d.queue_hint_ms));
  cli.declare("isolate-workers",
              with_default("execute kernels in N supervised worker processes: "
                           "crashes are respawned+retried, poison requests "
                           "answered with WorkerError; 0 = in-process",
                           d.isolate_workers));
  cli.declare("worker-mem-mb",
              with_default("address-space rlimit per isolated worker in MiB; 0 "
                           "= unlimited",
                           d.worker_mem_mb));
  cli.declare("max-line-bytes",
              "request line byte cap; longer lines get a ParseError response "
              "(default 1 MiB)");
  cli.declare("metrics",
              "write a counters/gauges/histograms JSON snapshot here on exit");
  cli.declare("no-fault-fallback",
              "surface unrecovered conversion faults as FaultError responses "
              "instead of degrading to the reference CSR kernel");
  cli.declare("fault-site",
              "fault injection site for chaos testing: none | tile_row_id | "
              "tile_col_idx | tile_val | cache_entry | suite_arm | shard_exec | "
              "serialized_stream | worker_abort | worker_hang (default none)");
  cli.declare("fault-rate", "per-event injection probability in [0, 1] (default 0)");
  cli.declare("fault-seed", "seed of the deterministic fault sequence (default 0)");
  if (cli.has("help")) {
    std::cout << cli.help("nmdt_serve: JSON-lines SpMM request daemon");
    return 0;
  }

  std::string metrics_path;
  std::optional<fault::FaultScope> fault_scope;
  try {
    cli.validate();
    metrics_path = cli.get("metrics", "");
    const usize max_line_bytes = static_cast<usize>(std::max<i64>(
        64, cli.get_int("max-line-bytes", static_cast<i64>(kDefaultMaxLineBytes))));
    fault::FaultPlan plan;
    plan.site = fault::parse_site(cli.get("fault-site", "none"));
    plan.rate = cli.get_double("fault-rate", 0.0);
    plan.seed = static_cast<u64>(cli.get_int("fault-seed", 0));
    NMDT_CHECK_CONFIG(plan.rate >= 0.0 && plan.rate <= 1.0,
                      "--fault-rate must be in [0, 1]");
    if (plan.site != fault::FaultSite::kNone) fault_scope.emplace(plan);

    const ServerOptions opts = options_from(cli);
    SpmmServer server(opts, [](const Response& r) {
      // Called under the server's sink mutex: one response per line,
      // flushed so clients see it before the next is serialized.
      std::cout << to_json_line(r) << '\n' << std::flush;
    });
    // Chain the escalation token to the server: a second SIGTERM
    // request()s it, which cancels the server's in-flight work.
    escalation_token() = server.cancel_token();
    install_signal_handlers();
    server.start();
    std::cerr << "nmdt_serve: ready (workers=" << opts.workers
              << " queue=" << opts.queue_capacity
              << " coalesce=" << opts.coalesce_max
              << (opts.isolate_workers > 0
                      ? " isolate=" + std::to_string(opts.isolate_workers)
                      : std::string())
              << ")\n";

    // Housekeeping: service SIGHUP flush requests off the signal path.
    // The read loop stays blocked in stdin (SA_RESTART), so this thread
    // is the only place a live snapshot can be written from.  The guard
    // joins on every exit path, including exceptions.
    struct Housekeeper {
      std::atomic<bool> stop{false};
      std::thread thread;
      ~Housekeeper() {
        stop.store(true, std::memory_order_relaxed);
        if (thread.joinable()) thread.join();
      }
    } housekeeper;
    housekeeper.thread = std::thread([&] {
      const auto service_flush = [&] {
        if (!g_flush_metrics.exchange(false, std::memory_order_relaxed)) return;
        if (!metrics_path.empty()) {
          obs::MetricsRegistry::global().write_json_file(metrics_path);
          std::cerr << "nmdt_serve: metrics snapshot flushed to "
                    << metrics_path << "\n";
        } else {
          std::cerr << "nmdt_serve: SIGHUP ignored (no --metrics path)\n";
        }
      };
      while (!housekeeper.stop.load(std::memory_order_relaxed)) {
        service_flush();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      service_flush();  // a HUP racing shutdown is serviced, not dropped
    });

    std::string line;
    u64 line_no = 0;
    while (g_signals.load(std::memory_order_relaxed) == 0) {
      try {
        if (!read_bounded_line(std::cin, line, max_line_bytes, "request")) break;
      } catch (const std::exception& e) {
        // Oversized line: typed response, then discard the remainder so
        // the next request starts on a line boundary.  ignore()
        // discards without buffering, so the cap still bounds memory.
        ++line_no;
        Response r = error_response("line-" + std::to_string(line_no), "default", e);
        std::cout << to_json_line(r) << '\n' << std::flush;
        std::cin.clear();
        std::cin.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        continue;
      }
      ++line_no;
      if (line.empty() || line == "\r") continue;
      try {
        server.submit(parse_request(line, line_no));
      } catch (const std::exception& e) {
        // Parse failures never reach the queue: answer directly.
        Response r = error_response("line-" + std::to_string(line_no), "default", e);
        std::cout << to_json_line(r) << '\n' << std::flush;
      }
    }

    std::cerr << "nmdt_serve: draining\n";
    server.begin_shutdown();
    server.drain();
    const ServerStats s = server.stats();
    std::cerr << "nmdt_serve: done (submitted=" << s.submitted
              << " accepted=" << s.accepted << " ok=" << s.completed_ok
              << " error=" << s.completed_error
              << " shed=" << (s.shed_queue_full + s.shed_over_quota + s.shed_shutdown)
              << " coalesced=" << s.coalesced_requests << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << describe_exception(e) << "\n";
    if (!metrics_path.empty()) obs::MetricsRegistry::global().write_json_file(metrics_path);
    return exit_code_for(e);
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::global().write_json_file(metrics_path);
    std::cerr << "metrics: " << metrics_path << "\n";
  }
  return 0;
}
