// nmdt_bench — end-to-end benchmark of the two things a user of this
// repository waits for: one SpMM service request (service::SpmmServer,
// driven in-process through the same parse → submit → encode calls the
// nmdt_serve daemon makes) and one suite sweep (run_suite, journal on).
//
//   nmdt_bench --workload serve_steady --seed 1 --seconds 15 --trace 0
//
// One process runs one workload, so plan caches, heap state and peak RSS
// never leak between workloads (run.py starts a fresh process each
// time).  Every input — arrival times, matrix choice and seeds, K,
// b_seed, suite seeds — derives from --seed.  Progress goes to stderr;
// the last stdout line is one JSON object carrying the end-to-end
// metrics ("e2e"), the per-layer metrics ("layers"), each with unit and
// sample count, plus attempted/failed counts, the verification verdict
// and a digest of the simulated statistics of the verified sample.
// README.md beside this file says why each workload exists and which
// layer metric should move which end-to-end metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.hpp"
#include "formats/fingerprint.hpp"
#include "formats/retype.hpp"
#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "service/server.hpp"
#include "transform/comparator.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nmdt::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Latency limit on the reported p99: a request answered ok within it
/// meets the SLO (request.slo_attainment).
constexpr double kSloMs = 250.0;
/// Requests kept outstanding by the closed phase that measures capacity.
constexpr usize kClosedOutstanding = 6;
/// Open-phase requests re-executed outside the timed window and folded
/// into sim_digest (every coalesced member is re-executed as well).
constexpr usize kVerifySample = 50;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 7;
/// Requests (serve) and suite rows (sweep) in the traced prefix.
constexpr usize kTraceRequests = 32;
constexpr usize kTraceRows = 40;
/// Suite sweep: dense columns, and the rows of the warm-up set-up sweep.
constexpr index_t kSweepK = 64;
constexpr usize kWarmRows = 8;
constexpr u64 kMaxSeed = 1'000'000'000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double pct(const std::vector<double>& xs, double p) {
  return percentile(std::span<const double>(xs), p);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// High-water resident set of this process (VmHWM), MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int host_cpus() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

/// Process CPU time sampled about once a second by the load loop.  The
/// CPU per operation of each window, medianed over the windows, keeps a
/// few slow seconds of a shared host from setting the run's figure.
class CpuWindows {
 public:
  void mark() {
    at_.push_back(Clock::now());
    cpu_.push_back(cpu_seconds());
  }
  void tick() {
    if (at_.empty() || Clock::now() - at_.back() >= std::chrono::seconds(1)) mark();
  }
  usize windows() const { return at_.empty() ? 0 : at_.size() - 1; }
  /// Median over windows of CPU ms per operation finished inside it.
  double median_ms_per_op(std::vector<Clock::time_point> done) const {
    std::sort(done.begin(), done.end());
    std::vector<double> per_op;
    for (usize w = 0; w + 1 < at_.size(); ++w) {
      const auto n = std::lower_bound(done.begin(), done.end(), at_[w + 1]) -
                     std::lower_bound(done.begin(), done.end(), at_[w]);
      if (n > 0) per_op.push_back((cpu_[w + 1] - cpu_[w]) * 1e3 / static_cast<double>(n));
    }
    return median(per_op);
  }

 private:
  std::vector<Clock::time_point> at_;
  std::vector<double> cpu_;
};

/// Independent RNG stream `k` of the run seed.
u64 stream(u64 seed, u64 k) { return fnv1a64(&k, sizeof k, seed * 0x9e3779b97f4a7c15ULL + 1); }

struct Metric {
  double value = 0.0;
  std::string unit;
  u64 samples = 0;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  Metrics e2e;
  Metrics layers;
  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
  u64 digest = 0xcbf29ce484222325ULL;
};

void fail(RunResult& r, const std::string& why) {
  r.correct = false;
  std::cerr << "VERIFY FAILED: " << why << "\n";
}

// --- simulated-statistics digest -------------------------------------

template <class T>
void fold(u64& h, T v) {
  h = fnv1a64(&v, sizeof v, h);
}

void fold_result(u64& h, const SpmmResult& r) {
  const KernelCounters& c = r.counters;
  for (u64 v : {c.fp_instr, c.int_instr, c.control_instr, c.memory_instr,
                c.lane_slots_active, c.lane_slots_inactive, c.flops, c.atomic_updates,
                c.kernel_launches, c.warp_visits, c.serial_iterations, c.max_chain_iters}) {
    fold(h, v);
  }
  for (i64 v : {r.mem.total_dram_bytes(), r.mem.xbar_bytes, r.mem.l2_service_bytes,
                r.mem.atomic_rmw_bytes}) {
    fold(h, v);
  }
  for (u64 v : {r.mem.l2.accesses, r.mem.l2.sector_hits, r.mem.l2.sector_misses,
                r.engine.requests, r.engine.steps, r.engine.elements,
                r.engine.comparator_ops}) {
    fold(h, v);
  }
  fold(h, r.timing.total_ns);
}

/// C of `res` against the f64 reference under the fSPMV tolerance.
bool within_tolerance(const Csr& A, const DenseMatrix& B, const SpmmResult& res) {
  const auto ref = spmm_reference_f64(A, B);
  return ToleranceComparator(default_tolerance(Precision::kF32))
      .compare(ref, retype<double>(res.C), A, B)
      .pass;
}

// --- service workloads -------------------------------------------------

/// One request of a serve workload's schedule.
struct Planned {
  double at_s = 0.0;  ///< open-loop send offset from the phase start
  std::string tenant = "default";
  std::string matrix;
  index_t k = 16;
  u64 b_seed = 1;
  bool hog = false;  ///< the planned over-quota burst of serve_burst
};

std::string gen_spec(const char* kind, index_t rows, index_t cols, double density, Rng& r) {
  std::ostringstream os;
  os << "gen:" << kind << ":" << rows << "x" << cols << ":" << density << ":"
     << r.below(kMaxSeed);
  return os.str();
}

struct ServeMix {
  std::vector<std::string> resident;  ///< matrices warmed during set-up
  service::ServerOptions opts;
  std::vector<Planned> open;          ///< the open-loop schedule
  /// The request stream of the closed phase and the traced prefix: one
  /// group of requests meant to arrive together.
  std::function<std::vector<Planned>(Rng&)> next_group;
};

/// Poisson arrivals at `rate` over `seconds`, conditioned on their
/// expected count (uniform instants, sorted): every seed offers the same
/// load and only the instants differ.
void poisson(std::vector<Planned>& out, Rng& r, double rate, double seconds,
             const std::function<std::vector<Planned>(Rng&)>& next) {
  std::vector<double> at(static_cast<usize>(std::lround(rate * seconds)));
  for (double& t : at) t = r.uniform(0.0, seconds);
  std::sort(at.begin(), at.end());
  for (double t : at) {
    for (Planned p : next(r)) {
      p.at_s = t;
      out.push_back(std::move(p));
    }
  }
}

ServeMix make_mix(const std::string& workload, u64 seed, double open_s) {
  ServeMix m;
  m.opts.workers = std::clamp(host_cpus() - 1, 1, 3);
  Rng r(stream(seed, 1));
  if (workload == "serve_steady") {
    m.resident = {gen_spec("uniform", 16384, 2048, 0.002, r),
                  gen_spec("uniform", 8192, 8192, 0.001, r),
                  gen_spec("powerlaw_rows", 8192, 8192, 0.001, r),
                  gen_spec("powerlaw_cols", 8192, 8192, 0.001, r)};
    // Each block of eight requests holds every (matrix, K) pair once, in
    // seeded order, so every seed offers the same mix.
    m.next_group = [mats = m.resident, deck = std::vector<usize>{}](Rng& g) mutable {
      if (deck.empty()) {
        for (usize c = 0; c < 2 * mats.size(); ++c) {
          deck.insert(deck.begin() + static_cast<i64>(g.below(deck.size() + 1)), c);
        }
      }
      Planned p;
      p.matrix = mats[deck.back() / 2];
      p.k = deck.back() % 2 == 0 ? 16 : 64;
      p.b_seed = g.below(kMaxSeed);
      deck.pop_back();
      return std::vector<Planned>{p};
    };
    poisson(m.open, r, 30.0, open_s, m.next_group);
  } else if (workload == "serve_cold") {
    // Warm-up matrices only: every timed request names a fresh matrix.
    m.resident = {gen_spec("uniform", 4096, 4096, 0.002, r),
                  gen_spec("powerlaw_cols", 4096, 4096, 0.002, r)};
    m.next_group = [n = u64{0}](Rng& g) mutable {
      Planned p;
      p.matrix = gen_spec(n++ % 2 == 0 ? "uniform" : "powerlaw_cols", 4096, 4096, 0.002, g);
      p.k = 16;
      p.b_seed = g.below(kMaxSeed);
      return std::vector<Planned>{p};
    };
    poisson(m.open, r, 40.0, open_s, m.next_group);
  } else if (workload == "serve_burst") {
    m.opts.tenant_rate = 10.0;
    m.opts.tenant_burst = 16.0;
    m.resident = {gen_spec("uniform", 8192, 8192, 0.001, r),
                  gen_spec("powerlaw_rows", 4096, 4096, 0.002, r)};
    m.next_group = [mats = m.resident, n = u64{0}](Rng& g) mutable {
      std::vector<Planned> group(8);
      for (usize i = 0; i < group.size(); ++i) {
        group[i].tenant = "t" + std::to_string(i % 4);
        group[i].matrix = mats[n % 2];
        group[i].k = 32;
        group[i].b_seed = g.below(kMaxSeed);
      }
      ++n;
      return group;
    };
    for (double t = 0.0; t < open_s; t += 0.25) {
      for (Planned p : m.next_group(r)) {
        p.at_s = t;
        m.open.push_back(std::move(p));
      }
    }
    // Two instants, ≥ 1.6 s apart at the default run length so the hog's
    // bucket refills in between: each sends 2 × tenant_burst requests
    // at once, of which the last tenant_burst are shed by the quota.
    for (double at : {open_s / 3.0 + 0.125, 2.0 * open_s / 3.0 + 0.125}) {
      for (int i = 0; i < 2 * static_cast<int>(m.opts.tenant_burst); ++i) {
        Planned p;
        p.at_s = at;
        p.tenant = "hog";
        p.matrix = m.resident[0];
        p.b_seed = r.below(kMaxSeed);
        p.hog = true;
        m.open.push_back(std::move(p));
      }
    }
    std::stable_sort(m.open.begin(), m.open.end(),
                     [](const Planned& a, const Planned& b) { return a.at_s < b.at_s; });
  } else {
    throw ConfigError("unknown serve workload '" + workload + "'");
  }
  return m;
}

std::string request_line(usize id, const Planned& p) {
  return "{\"id\": \"" + std::to_string(id) + "\", \"tenant\": \"" + p.tenant +
         "\", \"matrix\": \"" + p.matrix + "\", \"k\": " + std::to_string(p.k) +
         ", \"b_seed\": " + std::to_string(p.b_seed) +
         ", \"kernel\": \"auto\", \"precision\": \"f32\"}";
}

struct Outcome {
  Planned p;
  Clock::time_point due;   ///< scheduled send time (latency origin)
  Clock::time_point done;  ///< response encoded
  service::Response resp;
  bool answered = false;
};

/// Drives one SpmmServer: sends request lines through parse_request +
/// submit, and records every response the server's sink delivers.
class Harness {
 public:
  explicit Harness(const service::ServerOptions& opts)
      : server_(opts, [this](const service::Response& r) { on_response(r); }) {
    server_.start();
  }

  /// Parse and submit one request; returns its index.
  usize send(const Planned& p, Clock::time_point due) {
    usize id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = out_.size();
      out_.push_back(Outcome{p, due, {}, {}, false});
    }
    const std::string line = request_line(id, p);
    const auto t0 = Clock::now();
    service::Request req;
    {
      obs::TraceSpan span("service.parse_request");
      req = service::parse_request(line, id);
    }
    const auto t1 = Clock::now();
    {
      obs::TraceSpan span("service.submit");
      server_.submit(std::move(req));
    }
    parse_us.push_back(ms_between(t0, t1) * 1e3);
    submit_us.push_back(ms_between(t1, Clock::now()) * 1e3);
    return id;
  }

  usize sent() {
    std::lock_guard<std::mutex> lock(mu_);
    return out_.size();
  }

  /// Wait until every sent request is answered or `deadline` passes;
  /// returns the number still unanswered.
  usize wait_answered(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] { return answered_ == out_.size(); });
    return out_.size() - answered_;
  }

  /// Wait until fewer than `n` requests are outstanding; false on timeout.
  bool wait_outstanding_below(usize n, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, deadline, [&] { return out_.size() - answered_ < n; });
  }

  std::vector<Outcome> outcomes() {
    std::lock_guard<std::mutex> lock(mu_);
    return {out_.begin(), out_.end()};
  }
  std::vector<double> encode_us() {
    std::lock_guard<std::mutex> lock(mu_);
    return encode_us_;
  }
  u64 stray() {
    std::lock_guard<std::mutex> lock(mu_);
    return stray_;
  }

  service::SpmmServer& server() { return server_; }

  std::vector<double> parse_us;   ///< bench thread only
  std::vector<double> submit_us;  ///< bench thread only

 private:
  void on_response(const service::Response& r) {
    const auto t0 = Clock::now();
    std::string line;
    {
      obs::TraceSpan span("service.encode");
      line = service::to_json_line(r);
    }
    const auto t1 = Clock::now();
    usize id = 0;
    const auto [ptr, ec] = std::from_chars(r.id.data(), r.id.data() + r.id.size(), id);
    std::lock_guard<std::mutex> lock(mu_);
    if (ec != std::errc{} || ptr != r.id.data() + r.id.size() || id >= out_.size() ||
        out_[id].answered) {
      ++stray_;
    } else {
      Outcome& o = out_[id];
      o.resp = r;
      o.done = t1;
      o.answered = true;
      ++answered_;
      encode_us_.push_back(ms_between(t0, t1) * 1e3);
    }
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Outcome> out_;  ///< guarded by mu_
  usize answered_ = 0;
  u64 stray_ = 0;
  std::vector<double> encode_us_;
  service::SpmmServer server_;  ///< declared last: drained before the rest dies
};

constexpr auto kDrainTimeout = std::chrono::seconds(60);

/// Send `group` at once and wait for every response.
bool send_group_and_wait(Harness& h, const std::vector<Planned>& group) {
  const auto now = Clock::now();
  for (const Planned& p : group) h.send(p, now);
  return h.wait_answered(Clock::now() + kDrainTimeout) == 0;
}

/// Start a server and build the plan of every resident matrix, one
/// request at a time so the set-up time does not depend on how the
/// requests happen to share the workers.
std::unique_ptr<Harness> set_up(const ServeMix& mix, service::ServerOptions opts,
                                RunResult& res) {
  auto h = std::make_unique<Harness>(opts);
  for (const std::string& m : mix.resident) {
    Planned p;
    p.tenant = "warmup";
    p.matrix = m;
    if (!send_group_and_wait(*h, {p})) fail(res, "set-up request was not answered");
  }
  for (const Outcome& o : h->outcomes()) {
    if (!o.resp.ok) fail(res, "set-up request failed: " + o.resp.message);
  }
  return h;
}

/// Re-execute sampled responses outside the timed window: each must
/// reproduce the service's c_crc32 bit for bit (the service/batch
/// identity contract) and stay within tolerance of the f64 reference.
/// Responses flagged `digest` fold their simulated statistics into the
/// run digest in index order; returns their simulated DRAM bytes.
i64 verify_responses(const std::vector<const Outcome*>& sample, const std::vector<bool>& digest,
                     RunResult& res) {
  std::map<std::string, usize> slot_of;
  std::vector<std::string> specs;
  for (const Outcome* o : sample) {
    if (slot_of.emplace(o->p.matrix, specs.size()).second) specs.push_back(o->p.matrix);
  }
  const int jobs = std::min(4, host_cpus());
  std::vector<std::shared_ptr<const Csr>> mats(specs.size());
  std::vector<std::shared_ptr<const SpmmPlan>> plans(specs.size());
  run_indexed(jobs, static_cast<i64>(specs.size()), [&](i64 i) {
    const auto u = static_cast<usize>(i);
    mats[u] = std::make_shared<const Csr>(service::load_matrix_spec(specs[u]));
    plans[u] = build_plan(*mats[u], PlanOptions{});
  });
  std::vector<std::string> errors(sample.size());
  std::vector<u64> digests(sample.size(), 0);
  std::vector<i64> dram(sample.size(), 0);
  run_indexed(jobs, static_cast<i64>(sample.size()), [&](i64 i) {
    const auto u = static_cast<usize>(i);
    const Outcome& o = *sample[u];
    const usize s = slot_of.at(o.p.matrix);
    const Csr& A = *mats[s];
    Rng rng(o.p.b_seed);
    DenseMatrix B(A.cols, o.p.k);
    B.randomize(rng);
    const SpmmResult r =
        SpmmExecutor(evaluation_config(A.rows, o.p.k)).execute(*plans[s], B);
    const auto bits = service::result_bits(r);
    if (o.resp.kernel != kernel_name(plans[s]->kernel())) {
      errors[u] = "kernel " + o.resp.kernel + " != plan's " + kernel_name(plans[s]->kernel());
    } else if (crc32(bits.data(), bits.size()) != o.resp.c_crc32) {
      errors[u] = "c_crc32 differs from a solo re-execution";
    } else if (!within_tolerance(A, B, r)) {
      errors[u] = "C outside the fSPMV tolerance of the f64 reference";
    }
    fold_result(digests[u], r);
    dram[u] = r.mem.total_dram_bytes();
  });
  i64 dram_bytes = 0;
  for (usize i = 0; i < sample.size(); ++i) {
    if (!errors[i].empty()) {
      fail(res, "request " + sample[i]->resp.id + " (" + sample[i]->p.matrix + "): " + errors[i]);
    }
    if (digest[i]) {
      fold(res.digest, digests[i]);
      dram_bytes += dram[i];
    }
  }
  return dram_bytes;
}

/// The serial request prefix the traced run measures: groups sent at
/// once on a one-worker server, so spans of different requests never
/// overlap on the server's track.  Returns its wall time in ms.
double run_prefix(Harness& h, const ServeMix& mix, Rng& r, RunResult& res) {
  const auto t0 = Clock::now();
  for (usize n = 0; n < kTraceRequests;) {
    const auto group = mix.next_group(r);
    if (!send_group_and_wait(h, group)) fail(res, "traced prefix request unanswered");
    n += group.size();
  }
  return ms_between(t0, Clock::now());
}

// --- per-layer breakdown from the trace ---------------------------------

/// Span name → layer (module).  A span the table does not place fails
/// the traced run, so every span the program emits is attributed.
struct LayerRule {
  std::string_view prefix;
  const char* layer;
};
/// suite.run is the caller blocked on the sweep's thread pool (its rows
/// and arms run on tracks of their own): waiting, not work, so it stays
/// out of the layer shares.
constexpr LayerRule kSpanLayers[] = {
    {"service.", "service"},      {"suite.run", "wait"},     {"plan_cache.", "core"},
    {"plan.build", "core"},       {"plan.fingerprint", "core"}, {"suite.", "core"},
    {"plan.profile", "analysis"}, {"plan.convert.", "formats"}, {"shard", "kernels"},
    {"fault.fallback", "kernels"}, {"mem.", "gpusim"},         {"engine.", "transform"},
    {"GetDCSRTile", "transform"}, {"fault.", "fault"},
};
constexpr const char* kLayers[] = {"service", "core",   "analysis", "formats",
                                   "kernels", "gpusim", "transform"};
constexpr KernelKind kAllKernels[] = {
    KernelKind::kCsrCStationaryRowWarp, KernelKind::kCsrCStationaryRowThread,
    KernelKind::kDcsrCStationary,       KernelKind::kTiledCsrBStationary,
    KernelKind::kTiledDcsrBStationary,  KernelKind::kTiledDcsrOnline,
    KernelKind::kAStationary,           KernelKind::kMergeCStationary,
    KernelKind::kHongHybrid};
/// Kernels the workloads run (the suite's four Fig. 16 arms).
constexpr KernelKind kReportedKernels[] = {
    KernelKind::kCsrCStationaryRowWarp, KernelKind::kDcsrCStationary,
    KernelKind::kTiledDcsrOnline, KernelKind::kTiledDcsrBStationary};

const char* layer_of(const std::string& span) {
  for (KernelKind k : kAllKernels) {
    if (span == kernel_name(k)) return "kernels";
  }
  for (const LayerRule& rule : kSpanLayers) {
    if (span.rfind(rule.prefix, 0) == 0) return rule.layer;
  }
  return nullptr;
}

/// Export the session, check it the way trace_lint does, and turn its
/// span tree into per-layer metrics.
void trace_layers(const obs::TraceSession& session, const std::string& path,
                  double overhead_frac, RunResult& res) {
  session.write_chrome_json_file(path);
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::string err;
  if (!obs::validate_chrome_trace(text, &err)) fail(res, "trace fails the schema check: " + err);
  const obs::TraceProfile prof = obs::analyze_trace(text);

  std::map<std::string, double> layer_us;
  double work_us = 0.0;
  for (const obs::AnalyzedSpan& s : prof.spans) {
    const char* layer = layer_of(s.name);
    if (layer == nullptr) {
      fail(res, "span '" + s.name + "' has no layer in kSpanLayers");
    } else if (std::string_view(layer) != "wait") {
      layer_us[layer] += s.self_us;
      work_us += s.self_us;
    }
  }
  std::map<std::string, const obs::LabelStat*> label;
  for (const obs::LabelStat& l : prof.labels) label[l.label] = &l;
  const auto self_ms = [&](const std::string& name) {
    const auto it = label.find(name);
    return it == label.end() ? 0.0 : it->second->excl_us * 1e-3;
  };
  const auto count = [&](const std::string& name) -> u64 {
    const auto it = label.find(name);
    return it == label.end() ? 0 : it->second->count;
  };
  const auto series_pct = [&](const std::string& name, double p) {
    const auto it = label.find(name);
    return it == label.end() ? 0.0 : pct(it->second->series_us, p);
  };
  Metrics& m = res.layers;
  m["service.batch.self_ms"] = {self_ms("service.batch"), "ms", count("service.batch")};
  m["core.plan.build_ms_p50"] = {series_pct("plan.build", 50) * 1e-3, "ms", count("plan.build")};
  m["core.plan.fingerprint_ms_p50"] = {series_pct("plan.fingerprint", 50) * 1e-3, "ms",
                                       count("plan.fingerprint")};
  m["analysis.profile_ms_p50"] = {series_pct("plan.profile", 50) * 1e-3, "ms",
                                  count("plan.profile")};
  for (const char* f : {"csc", "dcsr", "tiled_dcsr", "tiled_csr", "strip_nnz"}) {
    const std::string span = std::string("plan.convert.") + f;
    m[std::string("formats.convert.") + f + "_ms"] = {self_ms(span), "ms", count(span)};
  }
  for (KernelKind k : kReportedKernels) {
    m[std::string("kernels.") + kernel_name(k) + ".self_ms"] = {self_ms(kernel_name(k)), "ms",
                                                                count(kernel_name(k))};
  }
  m["kernels.shard.self_ms"] = {self_ms("shard"), "ms", count("shard")};
  m["kernels.shard_merge.self_ms"] = {self_ms("shard_merge"), "ms", count("shard_merge")};
  m["gpusim.mem_merge.self_ms"] = {self_ms("mem.merge"), "ms", count("mem.merge")};
  m["transform.convert_tile.self_ms"] = {self_ms("engine.convert_tile"), "ms",
                                         count("engine.convert_tile")};
  m["transform.convert_tile_us_p50"] = {series_pct("engine.convert_tile", 50), "us",
                                        count("engine.convert_tile")};
  m["core.suite.arm_ms_p50"] = {series_pct("suite.arm", 50) * 1e-3, "ms", count("suite.arm")};
  m["core.suite.arm_ms_p99"] = {series_pct("suite.arm", 99) * 1e-3, "ms", count("suite.arm")};
  // The suite driver's own work around each kernel: dispatch, fault points,
  // journal appends (inside suite.arm) and planning bookkeeping.
  m["core.suite.driver.self_ms"] = {self_ms("suite.arm") + self_ms("suite.plan"), "ms",
                                    count("suite.arm") + count("suite.plan")};
  const auto n_spans = static_cast<u64>(prof.spans.size());
  for (const char* layer : kLayers) {
    const double share = work_us > 0 ? layer_us[layer] / work_us : 0.0;
    m[std::string(layer) + ".self_share"] = {share, "fraction", n_spans};
  }
  m["bench.trace_spans"] = {static_cast<double>(n_spans), "count", n_spans};
  m["bench.trace_overhead_frac"] = {overhead_frac, "fraction", 2};
}

/// Registry counters of the timed window (reset at its start).
void registry_layers(RunResult& res) {
  auto& reg = obs::MetricsRegistry::global();
  const auto c = [&](const char* name) { return static_cast<double>(reg.counter(name).value()); };
  Metrics& m = res.layers;
  m["kernels.runs"] = {c("kernel.runs"), "count", 1};
  m["gpusim.mem_merges"] = {c("mem.merges"), "count", 1};
  m["transform.tile_requests"] = {c("engine.tile_requests"), "count", 1};
  m["core.checkpoint.written"] = {c("checkpoint.written"), "count", 1};
  m["core.checkpoint.bytes"] = {c("checkpoint.bytes"), "bytes", 1};
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string work_dir = ".";
};

RunResult run_serve(const Options& o) {
  RunResult res;
  const double open_s = o.seconds * 2.0 / 3.0;
  const double closed_s = o.seconds - open_s;
  const ServeMix mix = make_mix(o.workload, o.seed, open_s);

  std::unique_ptr<Harness> h;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    h.reset();
    const auto t0 = Clock::now();
    h = set_up(mix, mix.opts, res);
    setups.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  const usize first = h->sent();
  obs::MetricsRegistry::global().reset();
  const service::ServerStats stats0 = h->server().stats();
  const PlanCacheStats cache0 = h->server().plan_cache_stats();
  CpuWindows cpu;
  cpu.mark();

  // Open loop: each request is due at its scheduled instant, whether or
  // not earlier ones have been answered.
  std::vector<double> gen_lag_ms;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (const Planned& p : mix.open) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(p.at_s));
    cpu.tick();
    std::this_thread::sleep_until(due);
    gen_lag_ms.push_back(ms_between(due, Clock::now()));
    h->send(p, due);
  }
  const usize open_end = h->sent();
  const usize backlog = h->wait_answered(Clock::now() + std::chrono::seconds(1));
  if (h->wait_answered(Clock::now() + kDrainTimeout) != 0) fail(res, "open phase unanswered");

  // Closed loop: keep kClosedOutstanding requests in flight.
  Rng cr(stream(o.seed, 2));
  std::deque<Planned> pending;
  const auto c0 = Clock::now();
  const auto c_end = c0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(closed_s));
  for (u64 n = 0; h->wait_outstanding_below(kClosedOutstanding, c_end) && Clock::now() < c_end;
       ++n) {
    cpu.tick();
    if (pending.empty()) {
      for (Planned& p : mix.next_group(cr)) pending.push_back(std::move(p));
    }
    Planned p = std::move(pending.front());
    pending.pop_front();
    p.tenant = "closed-" + std::to_string(n % 32);
    h->send(p, Clock::now());
  }
  if (h->wait_answered(Clock::now() + kDrainTimeout) != 0) fail(res, "closed phase unanswered");
  cpu.mark();
  const double rss_mb = peak_rss_mb();
  const service::ServerStats stats1 = h->server().stats();
  const PlanCacheStats cache1 = h->server().plan_cache_stats();
  registry_layers(res);
  if (h->stray() != 0) fail(res, "responses with unknown ids");

  const std::vector<Outcome> out = h->outcomes();
  std::vector<double> lat_ms, queue_ms, exec_ms;
  usize slo_met = 0, user_requests = 0, coalesced = 0, ok_open = 0;
  double inv_batch = 0.0;
  std::vector<Clock::time_point> done;
  // Capacity: the closed phase's completion rate in each one-second
  // window (completions after the first over the time they span),
  // medianed over the windows.
  const auto windows = static_cast<usize>(std::max(1.0, std::floor(closed_s)));
  const double window_s = closed_s / static_cast<double>(windows);
  std::vector<std::vector<Clock::time_point>> closed_done(windows);
  for (usize i = first; i < out.size(); ++i) {
    const Outcome& x = out[i];
    ++res.attempted;
    done.push_back(x.done);
    const bool planned_shed = x.p.hog && x.resp.error_type == "OverloadError";
    if (!x.resp.ok && !planned_shed) {
      ++res.failed;
      std::cerr << "request " << i << " failed: " << x.resp.error_type << ": "
                << x.resp.message << "\n";
    }
    if (i >= open_end) {
      const auto w = static_cast<usize>(ms_between(c0, x.done) * 1e-3 / window_s);
      if (w < windows) closed_done[w].push_back(x.done);
      continue;
    }
    if (x.p.hog) continue;
    ++user_requests;
    if (!x.resp.ok) continue;
    const double l = ms_between(x.due, x.done);
    lat_ms.push_back(l);
    slo_met += l <= kSloMs ? 1 : 0;
    queue_ms.push_back(x.resp.queue_ms);
    exec_ms.push_back(x.resp.exec_ms);
    ++ok_open;
    coalesced += x.resp.coalesced > 1 ? 1 : 0;
    inv_batch += 1.0 / x.resp.coalesced;
  }

  // Verification: a seeded sample of the open schedule (folded into the
  // digest — the same seed always picks the same requests) plus every
  // coalesced member of either phase.
  std::vector<usize> user_idx;
  for (usize i = first; i < open_end; ++i) {
    if (!out[i].p.hog) user_idx.push_back(i);
  }
  Rng vr(stream(o.seed, 3));
  std::vector<bool> chosen(out.size(), false);
  for (usize n = 0; n < std::min(kVerifySample, user_idx.size()); ++n) {
    std::swap(user_idx[n], user_idx[n + vr.below(user_idx.size() - n)]);
    chosen[user_idx[n]] = true;
  }
  std::vector<const Outcome*> sample;
  std::vector<bool> digest;
  for (usize i = first; i < out.size(); ++i) {
    if (!out[i].resp.ok || !(chosen[i] || out[i].resp.coalesced > 1)) continue;
    sample.push_back(&out[i]);
    digest.push_back(chosen[i]);
  }
  const i64 dram_bytes = verify_responses(sample, digest, res);
  std::cerr << "verified " << sample.size() << " responses against solo re-execution\n";

  std::vector<double> rates;
  for (const auto& ts : closed_done) {
    const auto [lo, hi] = std::minmax_element(ts.begin(), ts.end());
    if (ts.size() >= 2 && *hi > *lo) {
      rates.push_back(static_cast<double>(ts.size() - 1) / (ms_between(*lo, *hi) * 1e-3));
    }
  }
  const auto n_lat = static_cast<u64>(lat_ms.size());
  Metrics& e = res.e2e;
  e["latency_p50_ms"] = {pct(lat_ms, 50), "ms", n_lat};
  e["capacity_per_s"] = {median(rates), "1/s", rates.size()};
  e["cpu_ms_per_op"] = {cpu.median_ms_per_op(done), "ms", cpu.windows()};
  e["peak_rss_mb"] = {rss_mb, "MiB", 1};
  e["setup_s"] = {median(setups), "s", setups.size()};

  Metrics& m = res.layers;
  const auto n_ok = static_cast<u64>(ok_open);
  m["request.latency_p95_ms"] = {pct(lat_ms, 95), "ms", n_lat};
  m["request.latency_p99_ms"] = {pct(lat_ms, 99), "ms", n_lat};
  m["request.samples"] = {static_cast<double>(n_lat), "count", n_lat};
  m["request.slo_attainment"] = {
      user_requests ? static_cast<double>(slo_met) / static_cast<double>(user_requests) : 0.0,
      "fraction", user_requests};
  m["service.queue_ms_p50"] = {pct(queue_ms, 50), "ms", n_ok};
  m["service.queue_ms_p95"] = {pct(queue_ms, 95), "ms", n_ok};
  m["service.exec_ms_p50"] = {pct(exec_ms, 50), "ms", n_ok};
  m["service.exec_ms_p95"] = {pct(exec_ms, 95), "ms", n_ok};
  m["service.coalesced_share"] = {n_ok ? static_cast<double>(coalesced) / n_ok : 0.0,
                                  "fraction", n_ok};
  m["service.batch_size_mean"] = {inv_batch > 0 ? static_cast<double>(n_ok) / inv_batch : 0.0,
                                  "count", n_ok};
  m["service.quota_sheds"] = {
      static_cast<double>(stats1.shed_over_quota - stats0.shed_over_quota), "count", 1};
  m["service.submit_us_p99"] = {pct(h->submit_us, 99), "us", h->submit_us.size()};
  m["service.parse_us_p50"] = {pct(h->parse_us, 50), "us", h->parse_us.size()};
  const std::vector<double> enc = h->encode_us();
  m["service.encode_us_p50"] = {pct(enc, 50), "us", enc.size()};
  const u64 lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
  m["core.plan_cache.hit_ratio"] = {
      lookups ? static_cast<double>(cache1.hits - cache0.hits) / static_cast<double>(lookups)
              : 0.0,
      "fraction", lookups};
  m["core.plan_cache.misses"] = {static_cast<double>(cache1.misses - cache0.misses), "count", 1};
  m["core.plan_cache.evictions"] = {static_cast<double>(cache1.evictions - cache0.evictions),
                                    "count", 1};
  m["core.plan_cache.resident_mb"] = {static_cast<double>(cache1.bytes) / (1 << 20), "MiB", 1};
  m["gpusim.dram_bytes"] = {static_cast<double>(dram_bytes), "bytes",
                            static_cast<u64>(std::count(digest.begin(), digest.end(), true))};
  m["bench.gen_lag_p99_ms"] = {pct(gen_lag_ms, 99), "ms", gen_lag_ms.size()};
  m["bench.backlog_end"] = {static_cast<double>(backlog), "count", 1};
  h.reset();

  if (o.trace) {
    // Set-up plus prefix on a fresh one-worker server, untraced and then
    // traced; tracing the set-up too puts its plan builds in the trace.
    service::ServerOptions one = mix.opts;
    one.workers = 1;
    const obs::TraceTrack bench_track("bench", 0);
    Rng tr(stream(o.seed, 4));
    const double untraced_ms = run_prefix(*set_up(mix, one, res), mix, tr, res);
    obs::TraceSession session;
    session.install();
    auto th = set_up(mix, one, res);
    const double traced_ms = run_prefix(*th, mix, tr, res);
    th.reset();
    session.uninstall();
    trace_layers(session, o.work_dir + "/trace-" + o.workload + ".json",
                 traced_ms / untraced_ms - 1.0, res);
  }
  return res;
}

// --- suite sweep ---------------------------------------------------------

/// The sweep's matrices: every second spec of the medium standard suite
/// (all families, densities and skews, ~1 s per sweep here), each
/// generator seed re-drawn from the run seed.
std::vector<MatrixSpec> sweep_specs(u64 seed) {
  const std::vector<MatrixSpec> suite = standard_suite(SuiteScale::kMedium);
  std::vector<MatrixSpec> specs;
  for (usize i = 0; i < suite.size(); i += 2) {
    MatrixSpec s = suite[i];
    s.seed = stream(seed, s.seed);
    s.name += "_r" + std::to_string(seed);
    specs.push_back(std::move(s));
  }
  return specs;
}

u64 failed_arms(const std::vector<SuiteRow>& rows) {
  u64 n = 0;
  for (const SuiteRow& r : rows) {
    if (!r.error.empty()) n += SuiteRow::kArmCount;
    for (const std::string& e : r.arm_error) n += e.empty() ? 0 : 1;
  }
  return n;
}

bool same_row(const SuiteRow& a, const SuiteRow& b) {
  const auto bits = [](double v) {
    u64 u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  return a.spec.name == b.spec.name && bits(a.profile.ssf) == bits(b.profile.ssf) &&
         bits(a.t_baseline_ms) == bits(b.t_baseline_ms) &&
         bits(a.t_dcsr_c_ms) == bits(b.t_dcsr_c_ms) &&
         bits(a.t_online_b_ms) == bits(b.t_online_b_ms) &&
         bits(a.t_offline_b_ms) == bits(b.t_offline_b_ms) &&
         bits(a.offline_prep_ms) == bits(b.offline_prep_ms);
}

RunResult run_sweep(const Options& o) {
  RunResult res;
  const std::vector<MatrixSpec> specs = sweep_specs(o.seed);
  const SpmmConfig cfg = evaluation_config(4096, kSweepK);
  SuiteOptions so;
  so.jobs = std::min(4, host_cpus());
  so.policy = SuiteErrorPolicy::kContinue;

  std::vector<double> setups;
  const std::span<const MatrixSpec> warm(specs.data(), std::min(kWarmRows, specs.size()));
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    res.failed += failed_arms(run_suite(warm, cfg, kSweepK, {}, so));
    setups.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  so.journal_path = o.work_dir + "/sweep-" + std::to_string(getpid()) + ".nmdj";

  obs::MetricsRegistry::global().reset();
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(o.seconds));
  // One sweep is one operation; each figure is a median over sweeps.
  std::vector<double> walls_ms, arms_per_s, cpu_ms_per_arm;
  std::vector<SuiteRow> first;
  u64 arms = 0;
  do {
    std::filesystem::remove(so.journal_path);
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    std::vector<SuiteRow> rows = run_suite(specs, cfg, kSweepK, {}, so);
    const double n_arms = static_cast<double>(rows.size() * SuiteRow::kArmCount);
    walls_ms.push_back(ms_between(t0, Clock::now()));
    arms_per_s.push_back(n_arms / (walls_ms.back() * 1e-3));
    cpu_ms_per_arm.push_back((cpu_seconds() - cpu0) * 1e3 / n_arms);
    arms += rows.size() * SuiteRow::kArmCount;
    res.failed += failed_arms(rows);
    if (first.empty()) {
      first = std::move(rows);
    } else if (rows.size() != first.size() ||
               !std::equal(rows.begin(), rows.end(), first.begin(), same_row)) {
      fail(res, "suite rows differ between repetitions of one sweep");
    }
  } while (Clock::now() < end);
  const double rss_mb = peak_rss_mb();
  registry_layers(res);
  std::filesystem::remove(so.journal_path);
  res.attempted = arms;

  // Verification: rows are bit-identical across repetitions (above), and
  // a seeded sample of matrices is re-executed outside the sweep through
  // build_plan + SpmmExecutor: every arm must reproduce the row's
  // modelled time exactly and stay within tolerance of the reference.
  for (const SuiteRow& r : first) {
    fold(res.digest, r.profile.ssf);
    for (double t : {r.t_baseline_ms, r.t_dcsr_c_ms, r.t_online_b_ms, r.t_offline_b_ms,
                     r.offline_prep_ms}) {
      fold(res.digest, t);
    }
  }
  std::map<std::string, const SuiteRow*> row_of;
  for (const SuiteRow& r : first) row_of[r.spec.name] = &r;
  Rng vr(stream(o.seed, 3));
  i64 dram_bytes = 0;
  u64 verified_arms = 0;
  for (int n = 0; n < 4; ++n) {
    const usize idx = vr.below(specs.size());
    const auto it = row_of.find(specs[idx].name);
    if (it == row_of.end()) continue;  // degenerate draw: the sweep skips it too
    const SuiteRow& row = *it->second;
    const Csr A = specs[idx].generate();
    const auto plan = build_plan(A, {cfg.tiling, default_ssf_threshold(), 1.0, cfg.precision});
    Rng b_rng(0xb0b0 + static_cast<u64>(idx));
    DenseMatrix B(A.cols, kSweepK);
    B.randomize(b_rng);
    const std::pair<KernelKind, double> arms_of_row[] = {
        {KernelKind::kCsrCStationaryRowWarp, row.t_baseline_ms},
        {KernelKind::kDcsrCStationary, row.t_dcsr_c_ms},
        {KernelKind::kTiledDcsrOnline, row.t_online_b_ms},
        {KernelKind::kTiledDcsrBStationary, row.t_offline_b_ms}};
    for (const auto& [kind, t_ms] : arms_of_row) {
      const SpmmResult r = SpmmExecutor(cfg).execute(kind, *plan, B);
      if (r.timing.total_ms() != t_ms) {
        fail(res, specs[idx].name + " " + kernel_name(kind) + ": modelled time differs");
      }
      if (!within_tolerance(A, B, r)) {
        fail(res, specs[idx].name + " " + kernel_name(kind) + ": C outside tolerance");
      }
      fold_result(res.digest, r);
      dram_bytes += r.mem.total_dram_bytes();
      ++verified_arms;
    }
  }

  Metrics& e = res.e2e;
  e["latency_p50_ms"] = {median(walls_ms), "ms", walls_ms.size()};
  e["capacity_per_s"] = {median(arms_per_s), "1/s", arms_per_s.size()};
  e["cpu_ms_per_op"] = {median(cpu_ms_per_arm), "ms", cpu_ms_per_arm.size()};
  e["peak_rss_mb"] = {rss_mb, "MiB", 1};
  e["setup_s"] = {median(setups), "s", setups.size()};

  // Serve-only layers read zero here; the request is one sweep.
  Metrics& m = res.layers;
  const auto n = static_cast<u64>(walls_ms.size());
  m["request.latency_p95_ms"] = {pct(walls_ms, 95), "ms", n};
  m["request.latency_p99_ms"] = {pct(walls_ms, 99), "ms", n};
  m["request.samples"] = {static_cast<double>(n), "count", n};
  m["request.slo_attainment"] = {0.0, "fraction", 0};
  for (const char* name :
       {"service.queue_ms_p50", "service.queue_ms_p95", "service.exec_ms_p50",
        "service.exec_ms_p95", "bench.gen_lag_p99_ms"}) {
    m[name] = {0.0, "ms", 0};
  }
  for (const char* name : {"service.submit_us_p99", "service.parse_us_p50",
                           "service.encode_us_p50"}) {
    m[name] = {0.0, "us", 0};
  }
  m["service.coalesced_share"] = {0.0, "fraction", 0};
  m["core.plan_cache.hit_ratio"] = {0.0, "fraction", 0};
  for (const char* name : {"service.batch_size_mean", "service.quota_sheds",
                           "core.plan_cache.misses", "core.plan_cache.evictions",
                           "bench.backlog_end"}) {
    m[name] = {0.0, "count", 0};
  }
  m["core.plan_cache.resident_mb"] = {0.0, "MiB", 0};
  m["gpusim.dram_bytes"] = {static_cast<double>(dram_bytes), "bytes", verified_arms};

  if (o.trace) {
    const std::span<const MatrixSpec> prefix(specs.data(), std::min(kTraceRows, specs.size()));
    const obs::TraceTrack bench_track("bench", 0);
    auto t0 = Clock::now();
    res.failed += failed_arms(run_suite(prefix, cfg, kSweepK, {}, so));
    const double untraced_ms = ms_between(t0, Clock::now());
    std::filesystem::remove(so.journal_path);
    obs::TraceSession session;
    session.install();
    t0 = Clock::now();
    res.failed += failed_arms(run_suite(prefix, cfg, kSweepK, {}, so));
    const double traced_ms = ms_between(t0, Clock::now());
    session.uninstall();
    std::filesystem::remove(so.journal_path);
    trace_layers(session, o.work_dir + "/trace-" + o.workload + ".json",
                 traced_ms / untraced_ms - 1.0, res);
  }
  return res;
}

// --- output ------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

std::string metrics_json(const Metrics& ms) {
  std::string out = "{";
  for (const auto& [name, m] : ms) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit +
           "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void print_table(const std::string& title, const Metrics& ms) {
  std::cerr << title << "\n";
  for (const auto& [name, m] : ms) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %14.4f %-8s n=%llu\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    std::cerr << line;
  }
}

int run(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.declare("workload", "serve_steady | serve_cold | serve_burst | suite_sweep");
  cli.declare("seed", "input seed (default 1)");
  cli.declare("seconds", "measured seconds (default 15)");
  cli.declare("trace", "1 = also run the traced prefix and report per-layer metrics");
  cli.declare("work-dir", "directory for the sweep journal and the trace (default .)");
  if (cli.has("help")) {
    std::cout << cli.help("nmdt_bench") << std::flush;
    return 0;
  }
  cli.validate();
  Options o;
  o.workload = cli.get("workload", "");
  o.seed = static_cast<u64>(cli.get_int("seed", 1));
  o.seconds = cli.get_double("seconds", 15.0);
  o.trace = cli.get_int("trace", 0) != 0;
  o.work_dir = cli.get("work-dir", ".");
  NMDT_CHECK_CONFIG(o.seconds > 0.0, "--seconds must be positive");
  std::filesystem::create_directories(o.work_dir);

  std::cerr << "nmdt_bench " << o.workload << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << o.trace << "\n";
  const RunResult r = o.workload == "suite_sweep" ? run_sweep(o) : run_serve(o);
  print_table("end-to-end:", r.e2e);
  if (o.trace) print_table("per-layer:", r.layers);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(r.digest));
  const bool correct = r.correct && r.failed == 0;
  std::cout << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
            << ", \"seconds\": " << num(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"nproc\": " << host_cpus() << ", \"host\": \""
            << obs::json_escape(obs::host_info().fingerprint()) << "\", \"sim_digest\": \""
            << digest << "\", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"e2e\": " << metrics_json(r.e2e) << ", \"layers\": " << metrics_json(r.layers)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nmdt::bench

int main(int argc, char** argv) {
  try {
    return nmdt::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << nmdt::describe_exception(e) << "\n";
    return nmdt::exit_code_for(e);
  }
}
