#include "proc/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/frame.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define NMDT_HAVE_FORK 1
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace nmdt::proc {

#ifdef NMDT_HAVE_FORK

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

/// write(2) the whole buffer, surviving EINTR and partial writes.
/// False on any hard error (EPIPE: the peer is gone).
bool write_full(int fd, const void* data, usize n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<usize>(w);
  }
  return true;
}

std::string describe_wait_status(int status) {
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "died (wait status " + std::to_string(status) + ")";
}

/// The worker process body.  Never returns; leaves via _Exit so
/// inherited stdio buffers are never flushed twice.
[[noreturn]] void worker_child_main(const ProcOptions& opts, const TaskHandler& handler,
                                    int task_fd, int result_fd,
                                    const std::vector<int>& inherited_fds) {
  // Only our two pipe ends survive; every other inherited descriptor
  // (sibling pipes, the supervisor's wake pipe) is closed so a sibling's
  // EOF is visible the moment it dies.
  for (const int fd : inherited_fds) ::close(fd);
  // Inherited signal handlers (the CLI's SIGINT latch, the daemon's
  // shutdown counter) touch state that is meaningless in the child;
  // default everything, including SIGPIPE so an orphaned worker dies on
  // its next write instead of looping.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);
  std::signal(SIGPIPE, SIG_DFL);
  // The inherited TraceSession's per-thread buffers belong to the
  // parent; uninstall (a lock-free pointer CAS) before any span opens.
  if (auto* session = obs::TraceSession::active()) session->uninstall();
  if (opts.worker_mem_mb > 0) {
    struct rlimit rl{};
    rl.rlim_cur = rl.rlim_max =
        static_cast<rlim_t>(opts.worker_mem_mb) * 1024 * 1024;
    ::setrlimit(RLIMIT_AS, &rl);
  }

  // Result and heartbeat frames share the pipe; frames larger than
  // PIPE_BUF are not atomic, so every write holds the mutex for the
  // full frame.
  std::mutex write_mu;
  auto send = [&](const std::string& framed) {
    std::lock_guard<std::mutex> lock(write_mu);
    return write_full(result_fd, framed.data(), framed.size());
  };
  {
    FieldWriter hello(kPipeRules);
    hello.put_u64(static_cast<u64>(::getpid()));
    send(encode_frame(FrameType::kHello, hello.out));
  }

  // Heartbeat thread: proves the *process* is alive even while the main
  // thread is deep in a long kernel.  The worker_hang fault stops it
  // (wedged) to simulate a whole-process wedge the supervisor can only
  // detect by silence.
  std::atomic<bool> hb_stop{false};
  std::atomic<bool> wedged{false};
  std::thread heartbeat([&] {
    const auto interval = std::chrono::duration<double, std::milli>(
        std::max(1.0, opts.heartbeat_interval_ms));
    while (!hb_stop.load(std::memory_order_relaxed)) {
      if (!wedged.load(std::memory_order_relaxed)) {
        if (!send(encode_frame(FrameType::kHeartbeat, {}))) break;
      }
      std::this_thread::sleep_for(interval);
    }
  });

  FrameDecoder decoder;
  int exit_code = 0;
  bool done = false;
  char buf[1 << 16];
  while (!done) {
    const ssize_t n = ::read(task_fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      exit_code = 1;
      break;
    }
    if (n == 0) break;  // supervisor is gone; exit quietly
    decoder.feed(buf, static_cast<usize>(n));
    try {
      while (auto frame = decoder.next()) {
        if (frame->type == FrameType::kShutdown) {
          done = true;
          break;
        }
        if (frame->type != FrameType::kTask) continue;
        FieldReader r(frame->payload, kPipeRules);
        const u64 id = r.get_u64("task id");
        const u8 kind = r.get_u8("task kind");
        const u64 key = r.get_u64("task key");
        const u32 attempt = r.get_u32("task attempt");
        const std::string body = r.get_str("task body");
        r.expect_done("task frame");
        // Deterministically injectable crashes, drawn per (key,
        // attempt): a re-dispatched task re-draws, so rates below 1.0
        // recover across retries while rate 1.0 quarantines.
        if (fault::should_inject(fault::FaultSite::kWorkerAbort,
                                 fault::mix(key, attempt))) {
          std::abort();
        }
        if (fault::should_inject(fault::FaultSite::kWorkerHang,
                                 fault::mix(key, attempt))) {
          wedged.store(true, std::memory_order_relaxed);
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        // Each outcome is encoded whole in its own writer: a result
        // over the pipe cap throws before any byte of its frame exists,
        // and comes back as a failed outcome on this first attempt
        // instead of a frame the supervisor would reject as corrupt.
        const auto result_frame = [id](u8 ok, std::string_view text) {
          FieldWriter out(kPipeRules);
          out.put_u64(id);
          out.put_u8(ok);
          out.put_str(text);
          return encode_frame(FrameType::kResult, out.out);
        };
        std::string framed;
        try {
          framed = result_frame(1, handler(kind, key, body));
        } catch (const std::exception& e) {
          framed = result_frame(0, describe_exception(e));
        } catch (...) {
          framed = result_frame(0, "unknown exception");
        }
        if (!send(framed)) {
          exit_code = 1;
          done = true;
          break;
        }
      }
    } catch (const std::exception&) {
      // Corrupt task frame: the channel is unusable; die and let the
      // supervisor respawn a clean worker.
      exit_code = 1;
      done = true;
    }
  }
  hb_stop.store(true, std::memory_order_relaxed);
  heartbeat.join();
  std::_Exit(exit_code);
}

}  // namespace

struct Supervisor::Impl {
  struct Task {
    u64 id = 0;
    u8 kind = 0;
    u64 key = 0;
    std::string payload;
    u64 affinity = 0;
    int crashes = 0;
    Clock::time_point not_before{};
    bool has_promise = false;
    std::promise<TaskOutcome> promise;
    std::unique_ptr<obs::TraceSpan> span;
  };
  using TaskPtr = std::shared_ptr<Task>;

  struct WorkerProc {
    pid_t pid = -1;
    int to_fd = -1;
    int from_fd = -1;
    FrameDecoder decoder;
    TaskPtr inflight;
    bool has_affinity = false;
    u64 last_affinity = 0;
    Clock::time_point last_hb{};
    bool alive = false;
  };

  ProcOptions opts;
  TaskHandler handler;

  // Caller-facing state.
  mutable std::mutex mu;
  std::condition_variable comp_cv;
  std::deque<TaskPtr> inbox;
  std::deque<Completion> completions;
  std::vector<i64> pids;
  std::atomic<u64> next_id{1};
  std::atomic<usize> pending{0};
  std::atomic<bool> stopping{false};
  bool shut_down = false;  // guarded by mu (shutdown idempotence)

  // Event-loop-thread state.
  std::vector<WorkerProc> workers;
  std::deque<TaskPtr> queue;
  int wake_r = -1, wake_w = -1;
  std::thread loop_thread;

  std::unique_ptr<obs::TraceSpan> supervise_span;

  struct sigaction old_sigpipe{};

  void wake() const {
    const char b = 1;
    // Non-blocking: a full wake pipe already guarantees a wakeup.
    (void)!::write(wake_w, &b, 1);
  }

  double backoff_ms(int crashes) const {
    double d = opts.backoff_base_ms;
    for (int i = 1; i < crashes; ++i) d *= 2.0;
    return std::min(d, kBackoffCapMs);
  }

  void complete(const TaskPtr& t, TaskOutcome outcome) {
    if (t->span) {
      t->span->arg("crashes", outcome.crashes)
          .arg("ok", i64{outcome.ok ? 1 : 0});
      t->span.reset();
    }
    pending.fetch_sub(1, std::memory_order_acq_rel);
    if (t->has_promise) {
      t->promise.set_value(std::move(outcome));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      completions.push_back(Completion{t->id, t->kind, t->key, std::move(outcome)});
    }
    comp_cv.notify_all();
  }

  bool spawn_worker(WorkerProc& w) {
    int task_pipe[2] = {-1, -1};
    int result_pipe[2] = {-1, -1};
    if (::pipe(task_pipe) != 0) return false;
    if (::pipe(result_pipe) != 0) {
      ::close(task_pipe[0]);
      ::close(task_pipe[1]);
      return false;
    }
    std::vector<int> inherited = {wake_r, wake_w, task_pipe[1], result_pipe[0]};
    for (const WorkerProc& other : workers) {
      if (other.to_fd >= 0) inherited.push_back(other.to_fd);
      if (other.from_fd >= 0) inherited.push_back(other.from_fd);
    }
    const pid_t pid = ::fork();
    if (pid == 0) worker_child_main(opts, handler, task_pipe[0], result_pipe[1], inherited);
    if (pid < 0) {
      ::close(task_pipe[0]);
      ::close(task_pipe[1]);
      ::close(result_pipe[0]);
      ::close(result_pipe[1]);
      return false;
    }
    ::close(task_pipe[0]);
    ::close(result_pipe[1]);
    ::fcntl(result_pipe[0], F_SETFL, O_NONBLOCK);
    w.pid = pid;
    w.to_fd = task_pipe[1];
    w.from_fd = result_pipe[0];
    w.decoder = FrameDecoder{};
    w.inflight = nullptr;
    w.has_affinity = false;
    w.last_hb = Clock::now();
    w.alive = true;
    obs::metrics().proc_spawns.add(1);
    {
      std::lock_guard<std::mutex> lock(mu);
      pids.push_back(static_cast<i64>(pid));
    }
    return true;
  }

  void close_worker_fds(WorkerProc& w) {
    if (w.to_fd >= 0) ::close(w.to_fd);
    if (w.from_fd >= 0) ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
  }

  void forget_pid(pid_t pid) {
    std::lock_guard<std::mutex> lock(mu);
    pids.erase(std::remove(pids.begin(), pids.end(), static_cast<i64>(pid)),
               pids.end());
  }

  /// A worker died (already reaped): account the crash, retry or
  /// quarantine its in-flight task, respawn.
  void worker_died(WorkerProc& w, const std::string& how) {
    close_worker_fds(w);
    forget_pid(w.pid);
    w.pid = -1;
    w.alive = false;
    obs::metrics().proc_crashes.add(1);
    if (TaskPtr t = std::move(w.inflight)) {
      w.inflight = nullptr;
      ++t->crashes;
      if (t->crashes >= kMaxWorkerRetries) {
        obs::metrics().proc_quarantines.add(1);
        TaskOutcome out;
        out.ok = false;
        out.crashes = t->crashes;
        out.error = "WorkerError: worker process " + how + " running this task; "
                    "quarantined after " + std::to_string(t->crashes) +
                    " crashed attempts";
        complete(t, std::move(out));
      } else {
        obs::metrics().proc_retries.add(1);
        t->not_before =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   backoff_ms(t->crashes)));
        queue.push_back(std::move(t));
      }
    }
    if (!stopping.load(std::memory_order_relaxed)) {
      // Respawn best-effort; a failed fork is retried on the next loop
      // iteration (dispatch() skips dead workers meanwhile).
      (void)spawn_worker(w);
    }
  }

  /// Kill + reap + account, for heartbeat timeouts and poisoned pipes.
  void kill_worker(WorkerProc& w, const std::string& why) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {}
    worker_died(w, why + " (" + describe_wait_status(status) + ")");
  }

  void dispatch_one(WorkerProc& w, TaskPtr t) {
    if (!t->span) {
      t->span = std::make_unique<obs::TraceSpan>("proc.task");
      t->span->arg("kind", i64{t->kind}).arg("key", static_cast<i64>(t->key));
    }
    std::string framed;
    try {
      FieldWriter body(kPipeRules);
      body.put_u64(t->id);
      body.put_u8(t->kind);
      body.put_u64(t->key);
      body.put_u32(static_cast<u32>(t->crashes));
      body.put_str(t->payload);
      framed = encode_frame(FrameType::kTask, body.out);
    } catch (const std::exception& e) {
      // A task over the pipe cap can never reach a worker: it fails
      // typed, once, and the worker stays idle.
      TaskOutcome out;
      out.crashes = t->crashes;
      out.error = describe_exception(e);
      complete(t, std::move(out));
      return;
    }
    w.inflight = t;
    w.has_affinity = true;
    w.last_affinity = t->affinity;
    if (!write_full(w.to_fd, framed.data(), framed.size())) {
      // The worker died before we could hand it work: reap and let the
      // retry/backoff path take over (the write never reached it, but
      // a dead worker mid-handshake still counts as a crash for the
      // task's budget — a fork bomb of instant deaths must converge to
      // quarantine, not loop forever).
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {}
      worker_died(w, "rejected its task pipe (" + describe_wait_status(status) + ")");
    }
  }

  void dispatch() {
    const auto now = Clock::now();
    for (WorkerProc& w : workers) {
      if (!w.alive && !stopping.load(std::memory_order_relaxed)) {
        (void)spawn_worker(w);  // retry an earlier failed respawn
      }
      if (!w.alive || w.inflight) continue;
      if (queue.empty()) return;
      // Prefer a task whose affinity matches what this worker ran last
      // (the suite keys affinity by row, so a worker reuses its cached
      // plan); fall back to the oldest ready task.
      auto pick = queue.end();
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if ((*it)->not_before > now) continue;
        if (w.has_affinity && (*it)->affinity == w.last_affinity) {
          pick = it;
          break;
        }
        if (pick == queue.end()) pick = it;
      }
      if (pick == queue.end()) continue;
      TaskPtr t = std::move(*pick);
      queue.erase(pick);
      dispatch_one(w, std::move(t));
    }
  }

  void handle_frame(WorkerProc& w, Frame frame) {
    const auto now = Clock::now();
    switch (frame.type) {
      case FrameType::kHello:
        w.last_hb = now;
        break;
      case FrameType::kHeartbeat:
        obs::metrics().proc_heartbeat_ms.observe(ms_since(w.last_hb, now));
        w.last_hb = now;
        break;
      case FrameType::kResult: {
        w.last_hb = now;
        FieldReader r(frame.payload, kPipeRules);
        const u64 id = r.get_u64("result task id");
        const u8 ok = r.get_u8("result status");
        std::string body = r.get_str("result body");
        r.expect_done("result frame");
        if (!w.inflight || w.inflight->id != id) {
          throw ParseError("worker result for unknown task id " + std::to_string(id));
        }
        TaskPtr t = std::move(w.inflight);
        w.inflight = nullptr;
        TaskOutcome out;
        out.ok = ok != 0;
        out.crashes = t->crashes;
        if (out.ok) out.payload = std::move(body);
        else out.error = std::move(body);
        complete(t, std::move(out));
        break;
      }
      default:
        // kTask/kShutdown never flow worker → supervisor.
        throw ParseError("unexpected frame type from worker");
    }
  }

  void read_worker(WorkerProc& w) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(w.from_fd, buf, sizeof(buf));
      if (n > 0) {
        w.decoder.feed(buf, static_cast<usize>(n));
        try {
          while (auto frame = w.decoder.next()) handle_frame(w, std::move(*frame));
        } catch (const std::exception&) {
          // Torn / bit-flipped / nonsensical result frames: the typed
          // ParseError from the decoder, never UB — the worker is
          // poisoned, kill it and let retry/backoff handle its task.
          kill_worker(w, "emitted a corrupt result frame");
          return;
        }
        continue;
      }
      if (n == 0) {  // EOF: the worker is dead or exiting
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {}
        worker_died(w, describe_wait_status(status));
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      kill_worker(w, "result pipe read failed");
      return;
    }
  }

  void check_heartbeats() {
    const auto now = Clock::now();
    for (WorkerProc& w : workers) {
      if (!w.alive) continue;
      if (ms_since(w.last_hb, now) <= opts.heartbeat_timeout_ms) continue;
      obs::metrics().proc_heartbeat_timeouts.add(1);
      kill_worker(w, "missed its heartbeat deadline");
    }
  }

  void reap_silent_exits() {
    // Normally death arrives as EOF; this catches a worker whose fds
    // leaked into a grandchild (EOF never fires) — rare, but waitpid is
    // cheap and a lost worker would otherwise stall its in-flight task
    // until the heartbeat deadline.
    for (WorkerProc& w : workers) {
      if (!w.alive) continue;
      int status = 0;
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid) worker_died(w, describe_wait_status(status));
    }
  }

  void drain_inbox() {
    std::lock_guard<std::mutex> lock(mu);
    while (!inbox.empty()) {
      queue.push_back(std::move(inbox.front()));
      inbox.pop_front();
    }
  }

  void loop() {
    std::vector<pollfd> fds;
    while (!stopping.load(std::memory_order_acquire)) {
      drain_inbox();
      dispatch();
      fds.clear();
      fds.push_back(pollfd{wake_r, POLLIN, 0});
      for (const WorkerProc& w : workers) {
        if (w.alive) fds.push_back(pollfd{w.from_fd, POLLIN, 0});
      }
      (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), /*timeout_ms=*/5);
      if ((fds[0].revents & POLLIN) != 0) {
        char scratch[256];
        while (::read(wake_r, scratch, sizeof(scratch)) > 0) {}
      }
      for (WorkerProc& w : workers) {
        if (!w.alive) continue;
        // Poll results are advisory; the nonblocking read handles
        // spurious wakeups and fd reuse across respawns safely.
        read_worker(w);
      }
      check_heartbeats();
      reap_silent_exits();
    }
  }
};

Supervisor::Supervisor(ProcOptions opts, TaskHandler handler)
    : impl_(std::make_unique<Impl>()) {
  NMDT_CHECK_CONFIG(opts.workers >= 1, "supervisor needs at least one worker");
  NMDT_CHECK_CONFIG(opts.heartbeat_interval_ms > 0.0 && opts.heartbeat_timeout_ms > 0.0,
                    "heartbeat interval and timeout must be positive");
  NMDT_CHECK_CONFIG(handler != nullptr, "supervisor needs a task handler");
  impl_->opts = opts;
  impl_->handler = std::move(handler);

  // Writes to a worker that died race its reaping; EPIPE (not a fatal
  // signal) is the behaviour the retry path depends on.
  struct sigaction ign{};
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  ::sigaction(SIGPIPE, &ign, &impl_->old_sigpipe);

  impl_->supervise_span = std::make_unique<obs::TraceSpan>("proc.supervise");
  impl_->supervise_span->arg("workers", impl_->opts.workers);

  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) throw ConfigError("supervisor cannot create its wake pipe");
  ::fcntl(wake[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake[1], F_SETFL, O_NONBLOCK);
  impl_->wake_r = wake[0];
  impl_->wake_w = wake[1];

  // Fork the initial fleet from the constructing thread, before the
  // event loop (or any caller thread) exists — the one moment the
  // process is as single-threaded as it will ever be.
  impl_->workers.resize(static_cast<usize>(impl_->opts.workers));
  for (auto& w : impl_->workers) {
    if (!impl_->spawn_worker(w)) {
      for (auto& spawned : impl_->workers) {
        if (!spawned.alive) continue;
        ::kill(spawned.pid, SIGKILL);
        while (::waitpid(spawned.pid, nullptr, 0) < 0 && errno == EINTR) {}
        impl_->close_worker_fds(spawned);
      }
      throw ConfigError("supervisor cannot fork worker processes");
    }
  }
  impl_->loop_thread = std::thread([impl = impl_.get()] { impl->loop(); });
}

Supervisor::~Supervisor() {
  try {
    shutdown();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

u64 Supervisor::submit(u8 kind, u64 key, std::string payload, u64 affinity) {
  auto t = std::make_shared<Impl::Task>();
  t->id = impl_->next_id.fetch_add(1, std::memory_order_relaxed);
  t->kind = kind;
  t->key = key;
  t->payload = std::move(payload);
  t->affinity = affinity;
  impl_->pending.fetch_add(1, std::memory_order_acq_rel);
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->shut_down) rejected = true;
    else impl_->inbox.push_back(t);
  }
  if (rejected) {
    TaskOutcome out;
    out.error = "WorkerError: supervisor is shut down";
    impl_->complete(t, std::move(out));
  } else {
    impl_->wake();
  }
  return t->id;
}

std::optional<Completion> Supervisor::wait_completion(double timeout_ms) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->comp_cv.wait_for(
      lock,
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(0.0, timeout_ms))),
      [&] { return !impl_->completions.empty(); });
  if (impl_->completions.empty()) return std::nullopt;
  Completion c = std::move(impl_->completions.front());
  impl_->completions.pop_front();
  return c;
}

TaskOutcome Supervisor::call(u8 kind, u64 key, std::string payload) {
  auto t = std::make_shared<Impl::Task>();
  t->id = impl_->next_id.fetch_add(1, std::memory_order_relaxed);
  t->kind = kind;
  t->key = key;
  t->payload = std::move(payload);
  t->has_promise = true;
  auto future = t->promise.get_future();
  impl_->pending.fetch_add(1, std::memory_order_acq_rel);
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->shut_down) rejected = true;
    else impl_->inbox.push_back(t);
  }
  if (rejected) {
    TaskOutcome out;
    out.error = "WorkerError: supervisor is shut down";
    impl_->complete(t, std::move(out));
  } else {
    impl_->wake();
  }
  return future.get();
}

std::vector<i64> Supervisor::worker_pids() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->pids;
}

void Supervisor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->shut_down) return;
    impl_->shut_down = true;
  }
  impl_->stopping.store(true, std::memory_order_release);
  impl_->wake();
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();

  // The loop is gone; this thread owns the worker table now.  Ask every
  // worker to exit, give the fleet a short grace window, then SIGKILL.
  const std::string bye = encode_frame(FrameType::kShutdown, std::string());
  for (auto& w : impl_->workers) {
    if (w.alive) (void)write_full(w.to_fd, bye.data(), bye.size());
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(500);
  bool all_dead = false;
  while (!all_dead && Clock::now() < deadline) {
    all_dead = true;
    for (auto& w : impl_->workers) {
      if (!w.alive) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        impl_->close_worker_fds(w);
        impl_->forget_pid(w.pid);
        w.alive = false;
      } else {
        all_dead = false;
      }
    }
    if (!all_dead) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& w : impl_->workers) {
    if (!w.alive) continue;
    ::kill(w.pid, SIGKILL);
    while (::waitpid(w.pid, nullptr, 0) < 0 && errno == EINTR) {}
    impl_->close_worker_fds(w);
    impl_->forget_pid(w.pid);
    w.alive = false;
  }
  // Every task still anywhere in flight gets a terminal typed outcome —
  // a blocked call() must never dangle past shutdown.
  auto fail = [&](const Impl::TaskPtr& t) {
    TaskOutcome out;
    out.crashes = t->crashes;
    out.error = "WorkerError: supervisor shut down before this task completed";
    impl_->complete(t, std::move(out));
  };
  for (auto& w : impl_->workers) {
    if (w.inflight) {
      Impl::TaskPtr t = std::move(w.inflight);
      fail(t);
    }
  }
  for (auto& t : impl_->queue) fail(t);
  impl_->queue.clear();
  std::deque<Impl::TaskPtr> leftover;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    leftover.swap(impl_->inbox);
  }
  for (auto& t : leftover) fail(t);

  if (impl_->wake_r >= 0) ::close(impl_->wake_r);
  if (impl_->wake_w >= 0) ::close(impl_->wake_w);
  impl_->wake_r = impl_->wake_w = -1;
  impl_->supervise_span.reset();
  ::sigaction(SIGPIPE, &impl_->old_sigpipe, nullptr);
}

#else  // !NMDT_HAVE_FORK

struct Supervisor::Impl {};

Supervisor::Supervisor(ProcOptions, TaskHandler) {
  throw ConfigError("process-isolated execution requires a POSIX host (fork/pipe)");
}
Supervisor::~Supervisor() = default;
u64 Supervisor::submit(u8, u64, std::string, u64) { return 0; }
std::optional<Completion> Supervisor::wait_completion(double) { return std::nullopt; }
TaskOutcome Supervisor::call(u8, u64, std::string) { return {}; }
std::vector<i64> Supervisor::worker_pids() const { return {}; }
void Supervisor::shutdown() {}

#endif  // NMDT_HAVE_FORK

}  // namespace nmdt::proc
