// Hardware-counter profiler for the host pipeline: a perf_event-backed
// counter set (cycles, instructions, LLC misses, branch misses) behind
// a portable getrusage/steady_clock fallback, plus captured host
// provenance (CPU model, core count, resolved SIMD tier, compiler).
//
// The paper's methodology is counter-driven (Fig. 2 stall breakdowns);
// Yang et al. and Salehi Dezfuli both show that per-kernel cycle and
// cache-miss attribution — not wall-clock alone — is what locates
// locality bugs.  ProfScope gives every instrumented section that
// signal: wrap a region, and on close the counter deltas land as
// `hw.*` args on an existing trace span and/or are readable via
// sample().
//
// Contracts:
//  * Off by default.  Profiling must be requested explicitly
//    (set_profiling_enabled / `nmdt_cli --perf` / micro_kernels); a
//    disabled ProfScope performs no syscalls, reads no clock, and
//    attaches nothing, so traces, metrics, C, and simulated counters
//    are bitwise no-ops — the determinism contracts of obs/trace.hpp
//    are untouched unless the user opts in.
//  * Graceful degradation.  perf_event_open is probed once per process;
//    unavailability (containers without CAP_PERFMON, non-Linux hosts,
//    NMDT_PERF_EVENTS=fallback) degrades to a getrusage + steady_clock
//    backend that fills CPU/wall time and leaves the counters at -1.
//    Per-thread open failures degrade the same way.  Nothing ever
//    throws for a missing counter.
//  * Counters are per-thread (the perf fds attach to the calling
//    thread), so a ProfScope around a jobs>1 region attributes only the
//    calling thread's work; serial hot-loop attribution — the ROADMAP
//    use case — is exact.
//
// Environment (resolved once, before the first scope):
//   NMDT_PERF_EVENTS=off       disable profiling entirely (scopes no-op
//                              even when requested)
//   NMDT_PERF_EVENTS=fallback  never call perf_event_open; rusage only
//   NMDT_PERF_EVENTS=auto      default: probe perf_event, else fallback
#pragma once

#include <chrono>
#include <string>

#include "util/types.hpp"

namespace nmdt::obs {

class TraceSpan;

/// Host provenance stamped into BENCH_kernels.json, bench history lines,
/// and markdown reports so timings are only ever compared like-for-like.
struct HostInfo {
  std::string cpu_model;   ///< /proc/cpuinfo model name ("unknown" elsewhere)
  int cores = 0;           ///< std::thread::hardware_concurrency
  std::string simd_tier;   ///< resolved simd dispatch tier (scalar/avx2/neon)
  std::string compiler;    ///< compiler id + version macros
  std::string build_type;  ///< CMAKE_BUILD_TYPE baked in at compile time
  std::string os;          ///< compile-time platform tag

  /// Stable identity string: two reports are timing-comparable iff
  /// their fingerprints match (check_serial_perf.py refuses otherwise).
  std::string fingerprint() const;
  /// JSON object literal with every field.
  std::string json() const;
};

/// The process host description (computed once, then cached).
const HostInfo& host_info();

enum class ProfBackend : u8 {
  kDisabled = 0,   ///< NMDT_PERF_EVENTS=off: scopes are strict no-ops
  kPerfEvent = 1,  ///< perf_event_open counter group
  kFallback = 2,   ///< getrusage + steady_clock (no hw counters)
};

const char* backend_name(ProfBackend b);

/// Backend resolved once per process from NMDT_PERF_EVENTS + a probe
/// open.  kPerfEvent means the probing thread could open a cycles or
/// instructions counter; individual threads may still fall back.
ProfBackend profiler_backend();

/// Counter deltas for one profiled region.  Counters are -1 when the
/// backend (or the specific event) is unavailable; the CPU/wall times
/// are always filled when the scope was active.
struct HwCounters {
  ProfBackend source = ProfBackend::kDisabled;
  i64 cycles = -1;
  i64 instructions = -1;
  i64 llc_misses = -1;
  i64 branch_misses = -1;
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
  double wall_s = 0.0;

  bool valid() const { return source != ProfBackend::kDisabled; }
  bool has_counters() const { return cycles >= 0 && instructions >= 0; }
  /// Instructions per cycle; 0 when either counter is unavailable.
  double ipc() const;
  /// LLC misses per thousand instructions; 0 when unavailable.
  double llc_miss_per_kinstr() const;
  /// JSON object literal ({"source": ..., "cycles": N | null, ...}).
  std::string json() const;
};

/// Whether ProfScope currently records.  True only when explicitly
/// requested AND the backend is not kDisabled.
bool profiling_enabled();
/// Request (or drop) profiling for the process.  A request is a no-op
/// under NMDT_PERF_EVENTS=off.  Not thread-safe against concurrently
/// opening scopes — flip it between runs, as the CLI and bench do.
void set_profiling_enabled(bool on);

/// RAII profiled region.  When profiling is enabled, captures the
/// calling thread's counters at open and close; the delta is readable
/// via sample() and, when a span was given, attached to it as `hw.*`
/// args (hw.src, hw.cycles, hw.instr, hw.ipc, hw.llc_miss,
/// hw.branch_miss, hw.cpu_ms).  Disabled scopes do nothing.
class ProfScope {
 public:
  ProfScope();
  explicit ProfScope(TraceSpan& span);
  ~ProfScope();

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  bool active() const { return active_; }
  /// Counter deltas accumulated since construction (invalid when the
  /// scope is inactive).
  HwCounters sample() const;

 private:
  TraceSpan* span_ = nullptr;
  bool active_ = false;
  HwCounters begin_{};
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace nmdt::obs
