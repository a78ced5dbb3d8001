#include "service/server.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <span>

#include "formats/matrix_market.hpp"
#include "formats/serialize.hpp"
#include "matgen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/frame.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt::service {

using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

/// Resolved matrices kept resident, keyed by spec string.
constexpr usize kMatrixCacheEntries = 16;

/// Small LRU of resolved matrices keyed by spec string, safe to share
/// across worker threads.  Each entry carries its load time; with a TTL
/// (> 0) a lookup past it reloads the spec, so a matrix file rewritten
/// on disk is re-read once the TTL has passed, as the plans built from
/// it expire.
class MatrixLru {
 public:
  explicit MatrixLru(double ttl_ms) : ttl_ms_(ttl_ms) {}

  std::shared_ptr<const Csr> get(const std::string& spec) {
    const auto now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (it->spec != spec) continue;
        if (ttl_ms_ > 0.0 && ms_between(it->loaded, now) > ttl_ms_) {
          lru_.erase(it);
          break;
        }
        lru_.splice(lru_.begin(), lru_, it);
        return lru_.front().matrix;
      }
    }
    // Load outside the lock; a racing duplicate load is wasted work, not
    // a correctness problem (the LRU adopts whichever lands last).
    auto loaded = std::make_shared<const Csr>(load_matrix_spec(spec));
    std::lock_guard<std::mutex> lock(mu_);
    lru_.push_front({spec, loaded, now});
    while (lru_.size() > kMatrixCacheEntries) lru_.pop_back();
    return loaded;
  }

 private:
  struct Entry {
    std::string spec;
    std::shared_ptr<const Csr> matrix;
    Clock::time_point loaded;  ///< when its load began
  };

  double ttl_ms_;
  std::mutex mu_;
  std::list<Entry> lru_;
};

namespace {

constexpr index_t kMaxGenDim = index_t{1} << 20;
/// Expected non-zeros (rows · cols · density) a generator spec may ask
/// for.  The dimension cap alone admits ~1e12: past 2^31 the generated
/// row pointer wraps index_t, and long before that one request would
/// exhaust the daemon's memory and take every tenant down with it.
constexpr double kMaxGenNnz = double{1 << 26};

/// Split "a:b:c" on ':'; no empty-segment collapsing.
std::vector<std::string> split_colon(const std::string& s) {
  std::vector<std::string> out;
  usize start = 0;
  for (usize i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ':') {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

i64 parse_i64_field(const std::string& s, const char* what) {
  i64 v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) {
    throw ParseError(std::string("matrix spec: malformed ") + what + " '" + s + "'");
  }
  return v;
}

double parse_double_field(const std::string& s, const char* what) {
  try {
    usize consumed = 0;
    const double v = std::stod(s, &consumed);
    if (consumed != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(std::string("matrix spec: malformed ") + what + " '" + s + "'");
  }
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The B operand of one request, generated exactly the way
/// `nmdt_cli run` generates it: Rng(b_seed) filling an (A.cols × k)
/// matrix — the bit-identity contract between service and batch mode.
DenseMatrix request_b(const Csr& A, const Request& req) {
  Rng rng(req.b_seed);
  DenseMatrix B(A.cols, req.k);
  B.randomize(rng);
  return B;
}

/// The members' B panels side by side, in member order.
DenseMatrix group_b(const Csr& A, std::span<const Request* const> group, index_t total_k) {
  if (group.size() == 1) return request_b(A, *group.front());
  DenseMatrix B(A.cols, total_k);
  index_t off = 0;
  for (const Request* req : group) {
    const DenseMatrix member_b = request_b(A, *req);
    for (index_t r = 0; r < member_b.rows(); ++r) {
      const auto src = member_b.row(r);
      std::copy(src.begin(), src.end(), B.row(r).begin() + off);
    }
    off += req->k;
  }
  return B;
}

SpmmConfig exec_config(const ServerOptions& opts, index_t rows, index_t k,
                       Precision precision) {
  SpmmConfig cfg = evaluation_config(rows, k);
  cfg.jobs = opts.jobs;
  cfg.precision = precision;
  cfg.fault_fallback = opts.fault_fallback;
  return cfg;
}

/// Effective per-request deadline in ms (0 = none).
double effective_deadline_ms(const Request& req, const ServerOptions& opts) {
  return req.deadline_ms > 0.0 ? req.deadline_ms : opts.default_deadline_ms;
}

/// Receives one member's response, its result half filled, together
/// with the instant the group's execute call began.
using MemberDone =
    std::function<void(usize member, Response& result, Clock::time_point exec_start)>;

/// The one request path: every ok response the service sends is filled
/// here, whether the group was coalesced, a solo run (a group of one),
/// or a task in an isolated worker process.  Resolves A once, plans it
/// through `plans`, runs one kernel over the members' concatenated B
/// panels under `token`, and splits C back per member.  Each column of
/// C = A·B depends only on its own column of B, accumulated in A's
/// non-zero order, so a member's bits are exactly a solo run's.
/// Members go to `done` in order, each as soon as its CRC is taken: the
/// bytewise CRC of a large slice takes milliseconds, and a member must
/// not wait for its neighbours' digests.  Resolution, planning and
/// execution failures throw before the first `done`.
void execute_group(MatrixLru& matrices, PlanCache& plans, const ServerOptions& opts,
                   std::span<const Request* const> group, const CancelToken& token,
                   const MemberDone& done) {
  const Request& head = *group.front();
  const std::shared_ptr<const Csr> A = matrices.get(head.matrix);
  index_t total_k = 0;
  for (const Request* req : group) total_k += req->k;
  const SpmmConfig cfg = exec_config(opts, A->rows, total_k, head.precision);
  const auto plan = plans.get_or_build(*A, plan_options_for(cfg));
  const KernelKind kind = head.kernel.value_or(plan->kernel());
  const DenseMatrix B = group_b(*A, group, total_k);

  CancelScope scope(token);
  token.poll();
  const auto exec_start = Clock::now();
  const SpmmResult result = SpmmExecutor(cfg).execute(kind, *plan, B);
  const double exec_ms = ms_between(exec_start, Clock::now());

  // Member i owns a byte-column band of every row of C; a member that
  // spans whole rows (a group of one) is one contiguous piece.
  const auto bits = result_bits(result);
  const usize rows = static_cast<usize>(A->rows);
  const usize row_bytes = bits.size() / rows;
  usize off = 0;
  for (usize i = 0; i < group.size(); ++i) {
    const Request* req = group[i];
    Response resp;
    resp.ok = true;
    resp.kernel = kernel_name(kind);
    resp.precision = precision_name(req->precision);
    resp.rows = A->rows;
    resp.k = req->k;
    resp.used_fallback = result.used_fallback;
    resp.exec_ms = exec_ms;
    const usize width = row_bytes / static_cast<usize>(total_k) * static_cast<usize>(req->k);
    const bool whole = width == row_bytes;
    const usize piece = whole ? bits.size() : width;
    if (req->return_c) resp.c_hex.reserve(2 * width * rows);
    for (usize r = 0; r < (whole ? 1 : rows); ++r) {
      const u8* p = bits.data() + r * row_bytes + off;
      resp.c_crc32 = crc32(p, piece, resp.c_crc32);
      if (req->return_c) resp.c_hex += hex_encode(p, piece);
    }
    off += width;
    done(i, resp, exec_start);
  }
}

/// The one task kind on the service supervisor pipe: execute a request.
constexpr u8 kTaskExec = 1;

/// Worker-process handler for isolate_workers mode.  Runs in the child:
/// execute_group over a group of one, through *child-local* caches (the
/// parent's PlanCache / matrix LRU are never touched across the fork —
/// their mutexes and shared_ptr control blocks stay parent-owned).
proc::TaskHandler make_exec_handler(ServerOptions opts) {
  auto matrices = std::make_shared<MatrixLru>(opts.plan_ttl_ms);
  auto plans = std::make_shared<PlanCache>(opts.plan_cache_bytes, opts.plan_ttl_ms);
  return [opts = std::move(opts), matrices, plans](
             u8 kind, u64 /*key*/, const std::string& payload) -> std::string {
    if (kind != kTaskExec) {
      throw ParseError("service worker: unknown task kind " + std::to_string(int{kind}));
    }
    FieldReader r(payload, proc::kPipeRules);
    Request req;
    req.matrix = r.get_str("exec matrix spec");
    req.k = static_cast<index_t>(r.get_u64("exec k"));
    req.b_seed = r.get_u64("exec b_seed");
    if (const i64 id = r.get_i64("exec kernel"); id >= 0) {
      req.kernel = static_cast<KernelKind>(id);
    }
    req.precision = static_cast<Precision>(r.get_u8("exec precision"));
    req.return_c = r.get_u8("exec return_c") != 0;
    const i64 deadline = r.get_i64("exec deadline");
    r.expect_done("exec task");

    // The ticket's deadline travels with the task; the kernels poll it
    // in the child exactly where they poll in-process.
    const CancelToken token;
    if (deadline != 0) {
      token.set_deadline(Clock::time_point{Clock::duration{deadline}}, CancelReason::kDeadline);
    }
    const Request* group[] = {&req};
    FieldWriter w(proc::kPipeRules);
    execute_group(*matrices, *plans, opts, group, token,
                  [&w](usize, Response& res, Clock::time_point exec_start) {
                    w.put_str(res.kernel);
                    w.put_str(res.precision);
                    w.put_i64(static_cast<i64>(res.rows));
                    w.put_i64(static_cast<i64>(res.k));
                    w.put_u8(res.used_fallback ? 1 : 0);
                    w.put_f64(res.exec_ms);
                    w.put_u32(res.c_crc32);
                    w.put_str(res.c_hex);
                    w.put_i64(static_cast<i64>(exec_start.time_since_epoch().count()));
                  });
    return std::move(w.out);
  };
}

/// execute_group for one ticket in a supervised worker process: the
/// request goes down the pipe, the result half comes back to `done`.  Worker
/// crashes surface as a typed WorkerError after the retry budget.
void execute_isolated(proc::Supervisor& supervisor, const Ticket& t, const MemberDone& done) {
  FieldWriter w(proc::kPipeRules);
  w.put_str(t.req.matrix);
  w.put_u64(static_cast<u64>(t.req.k));
  w.put_u64(t.req.b_seed);
  w.put_i64(t.req.kernel ? static_cast<i64>(*t.req.kernel) : i64{-1});
  w.put_u8(static_cast<u8>(t.req.precision));
  w.put_u8(t.req.return_c ? 1 : 0);
  // steady_clock is the system-wide monotonic clock, which the forked
  // child shares: time points cross the pipe as raw ticks (0 = none).
  w.put_i64(t.deadline ? static_cast<i64>(t.deadline->time_since_epoch().count()) : 0);
  // The task key feeds worker_abort / worker_hang fault draws; derive
  // it from the request id so chaos plans target requests stably.
  const u64 key = crc32(t.req.id.data(), t.req.id.size());
  proc::TaskOutcome out = supervisor.call(kTaskExec, key, std::move(w.out));
  if (!out.ok) {
    // Typed child failure (TimeoutError, FaultError, ParseError …) or
    // a WorkerError quarantine: rebuild the typed exception so the
    // response carries the same error_type / exit semantics as
    // in-process serving.
    std::rethrow_exception(exception_from_description(out.error));
  }
  FieldReader r(out.payload, proc::kPipeRules);
  Response res;
  res.ok = true;
  res.kernel = r.get_str("exec result kernel");
  res.precision = r.get_str("exec result precision");
  res.rows = static_cast<index_t>(r.get_i64("exec result rows"));
  res.k = static_cast<index_t>(r.get_i64("exec result k"));
  res.used_fallback = r.get_u8("exec result fallback") != 0;
  res.exec_ms = r.get_f64("exec result time");
  res.c_crc32 = r.get_u32("exec result crc");
  res.c_hex = r.get_str("exec result c_hex");
  const Clock::time_point exec_start{Clock::duration{r.get_i64("exec result start")}};
  r.expect_done("exec result");
  done(0, res, exec_start);
}

void publish_queue_depth(usize depth) {
  obs::metrics().service_queue_depth.set(static_cast<double>(depth));
}

}  // namespace

Csr load_matrix_spec(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) {
    const auto parts = split_colon(spec);
    if (parts.size() != 5) {
      throw ParseError("matrix spec '" + spec +
                       "': expected gen:<kind>:<rows>x<cols>:<density>:<seed>");
    }
    const std::string& kind = parts[1];
    const auto x = parts[2].find('x');
    if (x == std::string::npos) {
      throw ParseError("matrix spec: malformed dimensions '" + parts[2] + "'");
    }
    const i64 rows = parse_i64_field(parts[2].substr(0, x), "rows");
    const i64 cols = parse_i64_field(parts[2].substr(x + 1), "cols");
    if (rows < 1 || cols < 1 || rows > kMaxGenDim || cols > kMaxGenDim) {
      throw ParseError("matrix spec: dimensions must be in [1, " +
                       std::to_string(kMaxGenDim) + "]");
    }
    const double density = parse_double_field(parts[3], "density");
    if (!(density >= 0.0 && density <= 1.0)) {
      throw ParseError("matrix spec: density must be in [0, 1]");
    }
    if (static_cast<double>(rows) * static_cast<double>(cols) * density > kMaxGenNnz) {
      throw ParseError("matrix spec: rows x cols x density exceeds " +
                       std::to_string(static_cast<i64>(kMaxGenNnz)) + " non-zeros");
    }
    const i64 seed = parse_i64_field(parts[4], "seed");
    if (seed < 0) throw ParseError("matrix spec: seed must be >= 0");
    const auto r = static_cast<index_t>(rows);
    const auto c = static_cast<index_t>(cols);
    const auto gen_seed = static_cast<u64>(seed);
    if (kind == "uniform") return gen_uniform(r, c, density, gen_seed);
    if (kind == "powerlaw_rows") return gen_powerlaw_rows(r, c, density, 1.2, gen_seed);
    if (kind == "powerlaw_cols") return gen_powerlaw_cols(r, c, density, 1.2, gen_seed);
    throw ParseError("matrix spec: unknown generator '" + kind +
                     "' (expected uniform | powerlaw_rows | powerlaw_cols)");
  }
  if (ends_with(spec, ".bin")) return load_csr_file(spec);
  if (ends_with(spec, ".mtx")) return csr_from_coo(read_matrix_market_file(spec));
  throw ParseError("matrix spec '" + spec +
                   "' is neither gen:<...> nor a .mtx/.bin path");
}

SpmmServer::SpmmServer(ServerOptions opts, ResponseSink sink)
    : opts_(opts),
      sink_(std::move(sink)),
      queue_(opts.queue_capacity, opts.queue_hint_ms),
      quotas_(opts.tenant_rate, opts.tenant_burst),
      plan_cache_(opts.plan_cache_bytes, opts.plan_ttl_ms),
      matrices_(std::make_unique<MatrixLru>(opts.plan_ttl_ms)) {
  NMDT_CHECK_CONFIG(opts_.workers >= 1, "server needs at least one worker");
  NMDT_CHECK_CONFIG(opts_.jobs >= 0, "server jobs must be >= 0");
  NMDT_CHECK_CONFIG(sink_ != nullptr, "server needs a response sink");
  // One supervised task per ticket: coalescing would batch tickets into
  // a shared child execution, coupling their failure domains — exactly
  // what isolation exists to prevent.
  if (opts_.isolate_workers > 0) opts_.coalesce_max = 1;
}

SpmmServer::~SpmmServer() { drain(); }

void SpmmServer::start() {
  // Fork the supervised fleet BEFORE spawning worker threads: fork()
  // from a single-threaded process is the only fork whose child memory
  // image is guaranteed lock-free (proc/supervisor.hpp fork-safety
  // notes).
  if (opts_.isolate_workers > 0 && !supervisor_) {
    proc::ProcOptions popts;
    popts.workers = opts_.isolate_workers;
    popts.worker_mem_mb = opts_.worker_mem_mb;
    supervisor_ = std::make_unique<proc::Supervisor>(popts, make_exec_handler(opts_));
  }
  workers_.reserve(static_cast<usize>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void SpmmServer::respond(const Response& r) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_(r);
}

bool SpmmServer::submit(Request req) {
  obs::metrics().service_submitted.add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  const auto now = Clock::now();
  Ticket t;
  t.req = std::move(req);
  const auto shed_with = [&](const OverloadError& e, u64 ServerStats::*slot) {
    obs::metrics().service_shed.add(1);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++(stats_.*slot);
    }
    respond(error_response(t.req, e));
  };
  if (static_cast<State>(state_.load(std::memory_order_acquire)) != State::kRunning) {
    shed_with(OverloadError("server is shutting down; request rejected",
                            /*retry_after_ms=*/-1),
              &ServerStats::shed_shutdown);
    return false;
  }
  i64 retry_ms = 0;
  if (!quotas_.try_admit(t.req.tenant, now, &retry_ms)) {
    shed_with(OverloadError("tenant '" + t.req.tenant + "' is over its request quota",
                            retry_ms),
              &ServerStats::shed_over_quota);
    return false;
  }
  t.admitted_at = now;
  t.cancel = CancelToken::child_of(cancel_);
  const double deadline_ms = effective_deadline_ms(t.req, opts_);
  if (deadline_ms > 0.0) {
    const auto at = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(deadline_ms));
    t.cancel.set_deadline(at, CancelReason::kDeadline);
    t.deadline = at;
  }
  if (!queue_.try_push(std::move(t), &retry_ms)) {
    // try_push only moves the ticket on success, so t.req is intact on
    // the shed path.
    shed_with(OverloadError("admission queue is full", retry_ms),
              &ServerStats::shed_queue_full);
    return false;
  }
  obs::metrics().service_accepted.add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
  publish_queue_depth(queue_.depth());
  return true;
}

void SpmmServer::begin_shutdown() {
  int expected = static_cast<int>(State::kRunning);
  state_.compare_exchange_strong(expected, static_cast<int>(State::kDraining),
                                 std::memory_order_acq_rel);
  queue_.close();
}

void SpmmServer::drain() {
  begin_shutdown();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Workers are gone, so no call() is in flight; the supervised fleet
  // can exit.  (Order matters: shutting the supervisor down first would
  // strand draining tickets as WorkerError.)
  if (supervisor_) supervisor_->shutdown();
  state_.store(static_cast<int>(State::kStopped), std::memory_order_release);
}

void SpmmServer::cancel_all() { cancel_.request(CancelReason::kUser); }

ServerStats SpmmServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void SpmmServer::worker_loop() {
  while (auto first = queue_.pop()) {
    std::vector<Ticket> group;
    group.push_back(std::move(*first));
    if (opts_.coalesce_max > 1) {
      const Request& head = group.front().req;
      index_t k_budget = opts_.coalesce_max_k > head.k
                             ? opts_.coalesce_max_k - head.k
                             : 0;
      auto more = queue_.pop_matching(
          [&](const Ticket& t) {
            if (t.req.matrix != head.matrix || t.req.precision != head.precision ||
                t.req.kernel != head.kernel || t.req.k > k_budget) {
              return false;
            }
            k_budget -= t.req.k;
            return true;
          },
          static_cast<usize>(opts_.coalesce_max - 1));
      for (auto& t : more) group.push_back(std::move(t));
    }
    publish_queue_depth(queue_.depth());
    const auto batch_start = Clock::now();
    try {
      process_group(std::move(group));
    } catch (...) {
      // process_group answers every ticket itself; anything escaping is
      // a server bug, but a worker must never die silently mid-drain —
      // swallow and keep serving (the response-per-ticket invariant is
      // preserved by the per-ticket handlers below).
    }
    queue_.note_service_ms(ms_between(batch_start, Clock::now()));
  }
}

void SpmmServer::process_group(std::vector<Ticket> group) {
  obs::TraceSpan span("service.batch");
  span.arg("size", static_cast<i64>(group.size()));
  const int coalesced = static_cast<int>(group.size());
  if (coalesced > 1) {
    obs::metrics().service_coalesced_batches.add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.coalesced_batches;
    stats_.coalesced_requests += group.size();
  }

  // Members already past their deadline (or cancelled) are answered
  // now, so neither a batch nor an isolated worker ever sees them.
  std::vector<Ticket*> live;
  for (auto& t : group) {
    try {
      t.cancel.poll();
      live.push_back(&t);
    } catch (const std::exception& e) {
      finish_error(t, e, coalesced);
    }
  }

  // One execute_group call for `members` (a worker process's, when
  // isolated: those groups are singletons), answering each member as
  // its result arrives.  Throws before the first answer when execution
  // fails.
  const auto serve = [&](const std::vector<Ticket*>& members, const CancelToken& token) {
    const MemberDone done = [&](usize i, Response& resp, Clock::time_point exec_start) {
      resp.id = members[i]->req.id;
      resp.tenant = members[i]->req.tenant;
      resp.coalesced = coalesced;
      resp.queue_ms = ms_between(members[i]->admitted_at, exec_start);
      finish_ok(resp);
    };
    if (supervisor_) {
      execute_isolated(*supervisor_, *members.front(), done);
      return;
    }
    std::vector<const Request*> reqs;
    for (const Ticket* t : members) reqs.push_back(&t->req);
    execute_group(*matrices_, plan_cache_, opts_, reqs, token, done);
  };

  if (live.size() > 1) {
    // One token guards the whole batch: child of the server token, armed
    // with the earliest member deadline.  If it fires (or anything else
    // throws), the batch degrades to per-member solo runs below — one
    // expiring member must not consume its neighbours' results.
    CancelToken batch_token = CancelToken::child_of(cancel_);
    std::optional<Clock::time_point> earliest;
    for (const Ticket* t : live) {
      if (t->deadline && (!earliest || *t->deadline < *earliest)) earliest = t->deadline;
    }
    if (earliest) batch_token.set_deadline(*earliest, CancelReason::kDeadline);
    try {
      serve(live, batch_token);
      return;
    } catch (const std::exception&) {
    }
  }
  for (Ticket* t : live) {
    try {
      serve({t}, t->cancel);
    } catch (const std::exception& e) {
      finish_error(*t, e, coalesced);
    }
  }
}

void SpmmServer::finish_ok(const Response& resp) {
  obs::metrics().service_completed.add(1);
  obs::metrics().service_queue_ms.observe(resp.queue_ms);
  obs::metrics().service_exec_ms.observe(resp.exec_ms);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed_ok;
  }
  respond(resp);
}

void SpmmServer::finish_error(const Ticket& t, const std::exception& e,
                              int coalesced_with) {
  obs::metrics().service_failed.add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed_error;
  }
  Response resp = error_response(t.req, e);
  resp.coalesced = coalesced_with;
  respond(resp);
}

}  // namespace nmdt::service
