#include "obs/profiler.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "obs/trace.hpp"
#include "util/simd.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace nmdt::obs {

namespace {

// ---- host provenance -------------------------------------------------

std::string detect_cpu_model() {
#if defined(__linux__)
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    // x86 exposes "model name"; many arm kernels expose "Processor" or
    // only "CPU part" — take the first humane field that appears.
    for (const char* key : {"model name", "Processor", "Hardware"}) {
      const usize n = std::strlen(key);
      if (line.compare(0, n, key) == 0) {
        const usize colon = line.find(':');
        if (colon != std::string::npos) {
          usize start = colon + 1;
          while (start < line.size() && line[start] == ' ') ++start;
          if (start < line.size()) return line.substr(start);
        }
      }
    }
  }
#endif
  return "unknown";
}

std::string detect_compiler() {
  char buf[128];
#if defined(__clang__)
  std::snprintf(buf, sizeof(buf), "clang %d.%d.%d", __clang_major__, __clang_minor__,
                __clang_patchlevel__);
#elif defined(__GNUC__)
  std::snprintf(buf, sizeof(buf), "gcc %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                __GNUC_PATCHLEVEL__);
#else
  std::snprintf(buf, sizeof(buf), "unknown");
#endif
  return buf;
}

std::string detect_build_type() {
#if defined(NMDT_BUILD_TYPE)
  return NMDT_BUILD_TYPE;
#elif defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

std::string detect_os() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

// ---- backend resolution ----------------------------------------------

enum class EnvPolicy { kOff, kFallback, kAuto };

EnvPolicy env_policy() {
  const char* env = std::getenv("NMDT_PERF_EVENTS");
  if (env == nullptr) return EnvPolicy::kAuto;
  const std::string v(env);
  if (v == "off" || v == "0" || v == "none") return EnvPolicy::kOff;
  if (v == "fallback" || v == "rusage") return EnvPolicy::kFallback;
  return EnvPolicy::kAuto;  // "auto", "on", anything else: probe
}

#if defined(__linux__)

long perf_open(u32 type, u64 config) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // count user-space work; no privilege needed
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, any CPU.
  return syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
}

/// Multiplexing-scaled total of one counter fd; -1 on any failure.
i64 perf_read_scaled(long fd) {
  if (fd < 0) return -1;
  struct {
    u64 value;
    u64 time_enabled;
    u64 time_running;
  } data{};
  if (read(static_cast<int>(fd), &data, sizeof(data)) != sizeof(data)) return -1;
  if (data.time_running == 0) return static_cast<i64>(data.value);
  const double scale =
      static_cast<double>(data.time_enabled) / static_cast<double>(data.time_running);
  return static_cast<i64>(static_cast<double>(data.value) * scale);
}

/// Per-thread counter fds, opened on first use and kept for the thread
/// lifetime (the counters run continuously; scopes read deltas).
struct ThreadCounters {
  long cycles = -1;
  long instructions = -1;
  long llc_misses = -1;
  long branch_misses = -1;
  bool opened = false;

  void open_once() {
    if (opened) return;
    opened = true;
    cycles = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
    instructions = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
    llc_misses = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
    branch_misses = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES);
  }
  bool usable() const { return cycles >= 0 || instructions >= 0; }

  ~ThreadCounters() {
    for (long fd : {cycles, instructions, llc_misses, branch_misses}) {
      if (fd >= 0) close(static_cast<int>(fd));
    }
  }
};

ThreadCounters& thread_counters() {
  thread_local ThreadCounters tc;
  tc.open_once();
  return tc;
}

bool probe_perf_event() {
  ThreadCounters probe;
  probe.open_once();
  return probe.usable();
}

#else

bool probe_perf_event() { return false; }

#endif  // __linux__

void read_cpu_times(double* user_s, double* sys_s) {
  *user_s = 0.0;
  *sys_s = 0.0;
#if defined(__linux__)
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    *user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * ru.ru_utime.tv_usec;
    *sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * ru.ru_stime.tv_usec;
  }
#elif defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    *user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * ru.ru_utime.tv_usec;
    *sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * ru.ru_stime.tv_usec;
  }
#endif
}

/// Absolute totals for the calling thread under the resolved backend.
HwCounters read_totals(ProfBackend backend) {
  HwCounters c;
  c.source = backend;
#if defined(__linux__)
  if (backend == ProfBackend::kPerfEvent) {
    ThreadCounters& tc = thread_counters();
    if (tc.usable()) {
      c.cycles = perf_read_scaled(tc.cycles);
      c.instructions = perf_read_scaled(tc.instructions);
      c.llc_misses = perf_read_scaled(tc.llc_misses);
      c.branch_misses = perf_read_scaled(tc.branch_misses);
    } else {
      c.source = ProfBackend::kFallback;  // this thread could not open
    }
  }
#endif
  read_cpu_times(&c.cpu_user_s, &c.cpu_sys_s);
  return c;
}

bool g_profiling_requested = false;

void append_json_counter(std::string& out, const char* key, i64 v) {
  out += "\"";
  out += key;
  out += "\": ";
  out += v < 0 ? "null" : std::to_string(v);
}

}  // namespace

// ---- HostInfo --------------------------------------------------------

const HostInfo& host_info() {
  static const HostInfo info = [] {
    HostInfo h;
    h.cpu_model = detect_cpu_model();
    h.cores = static_cast<int>(std::thread::hardware_concurrency());
    h.simd_tier = simd::tier_name(simd::active_tier());
    h.compiler = detect_compiler();
    h.build_type = detect_build_type();
    h.os = detect_os();
    return h;
  }();
  return info;
}

std::string HostInfo::fingerprint() const {
  return cpu_model + "|" + std::to_string(cores) + "|" + simd_tier + "|" + compiler +
         "|" + build_type + "|" + os;
}

std::string HostInfo::json() const {
  std::string out = "{\"cpu_model\": \"" + json_escape(cpu_model) + "\"";
  out += ", \"host_cores\": " + std::to_string(cores);
  out += ", \"simd_tier\": \"" + json_escape(simd_tier) + "\"";
  out += ", \"compiler\": \"" + json_escape(compiler) + "\"";
  out += ", \"build_type\": \"" + json_escape(build_type) + "\"";
  out += ", \"os\": \"" + json_escape(os) + "\"}";
  return out;
}

// ---- backend ---------------------------------------------------------

const char* backend_name(ProfBackend b) {
  switch (b) {
    case ProfBackend::kDisabled: return "disabled";
    case ProfBackend::kPerfEvent: return "perf_event";
    case ProfBackend::kFallback: return "rusage";
  }
  return "unknown";
}

ProfBackend profiler_backend() {
  static const ProfBackend backend = [] {
    switch (env_policy()) {
      case EnvPolicy::kOff: return ProfBackend::kDisabled;
      case EnvPolicy::kFallback: return ProfBackend::kFallback;
      case EnvPolicy::kAuto: break;
    }
    return probe_perf_event() ? ProfBackend::kPerfEvent : ProfBackend::kFallback;
  }();
  return backend;
}

bool profiling_enabled() {
  return g_profiling_requested && profiler_backend() != ProfBackend::kDisabled;
}

void set_profiling_enabled(bool on) { g_profiling_requested = on; }

// ---- HwCounters ------------------------------------------------------

double HwCounters::ipc() const {
  if (cycles <= 0 || instructions < 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

double HwCounters::llc_miss_per_kinstr() const {
  if (instructions <= 0 || llc_misses < 0) return 0.0;
  return 1e3 * static_cast<double>(llc_misses) / static_cast<double>(instructions);
}

std::string HwCounters::json() const {
  std::string out = "{\"source\": \"";
  out += backend_name(source);
  out += "\", ";
  append_json_counter(out, "cycles", cycles);
  out += ", ";
  append_json_counter(out, "instructions", instructions);
  out += ", ";
  append_json_counter(out, "llc_misses", llc_misses);
  out += ", ";
  append_json_counter(out, "branch_misses", branch_misses);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ", \"ipc\": %.4g, \"llc_miss_per_kinstr\": %.4g, "
                "\"cpu_user_s\": %.6g, \"cpu_sys_s\": %.6g, \"wall_s\": %.6g}",
                ipc(), llc_miss_per_kinstr(), cpu_user_s, cpu_sys_s, wall_s);
  out += buf;
  return out;
}

// ---- ProfScope -------------------------------------------------------

ProfScope::ProfScope() {
  if (!profiling_enabled()) return;
  active_ = true;
  begin_ = read_totals(profiler_backend());
  t0_ = std::chrono::steady_clock::now();
}

ProfScope::ProfScope(TraceSpan& span) : ProfScope() { span_ = &span; }

HwCounters ProfScope::sample() const {
  HwCounters d;
  if (!active_) return d;
  const HwCounters now = read_totals(begin_.source);
  d.source = begin_.source;
  auto delta = [](i64 a, i64 b) { return a < 0 || b < 0 ? i64{-1} : b - a; };
  d.cycles = delta(begin_.cycles, now.cycles);
  d.instructions = delta(begin_.instructions, now.instructions);
  d.llc_misses = delta(begin_.llc_misses, now.llc_misses);
  d.branch_misses = delta(begin_.branch_misses, now.branch_misses);
  d.cpu_user_s = now.cpu_user_s - begin_.cpu_user_s;
  d.cpu_sys_s = now.cpu_sys_s - begin_.cpu_sys_s;
  d.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
                 .count();
  return d;
}

ProfScope::~ProfScope() {
  if (!active_ || span_ == nullptr || !span_->enabled()) return;
  const HwCounters d = sample();
  span_->arg("hw.src", backend_name(d.source));
  if (d.cycles >= 0) span_->arg("hw.cycles", d.cycles);
  if (d.instructions >= 0) span_->arg("hw.instr", d.instructions);
  if (d.llc_misses >= 0) span_->arg("hw.llc_miss", d.llc_misses);
  if (d.branch_misses >= 0) span_->arg("hw.branch_miss", d.branch_misses);
  if (d.has_counters()) {
    span_->arg("hw.ipc", d.ipc());
    if (d.llc_misses >= 0) span_->arg("hw.llc_miss_per_kinstr", d.llc_miss_per_kinstr());
  }
  span_->arg("hw.cpu_ms", 1e3 * (d.cpu_user_s + d.cpu_sys_s));
}

}  // namespace nmdt::obs
