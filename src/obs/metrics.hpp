// Process-wide metrics: one declared catalogue of counters, gauges and
// log2-bucketed histograms, snapshotted to JSON.
//
// NMDT_METRICS below is the only place a metric exists.  Each entry
// gives the instrument type, the registry member every emission site
// uses (`obs::metrics().plan_cache_hits.add(1)`) and the snapshot
// name, sorted by name.  The unit is the name's suffix: `*_ms` is
// milliseconds, `*bytes` is bytes, anything else is a count; every
// histogram is a `_ms` timing.  Instruments are plain members of one
// constant-initialised registry, so there is no lookup, no lock and no
// lazy creation — a forked worker inherits nothing it could deadlock
// on.  Collection is always on: updates are single relaxed atomics
// and never perturb pipeline results; JSON is written only when a
// caller asks (e.g. `nmdt_cli run --metrics out.json`).
#pragma once

#include <array>
#include <atomic>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

#include "util/types.hpp"

#define NMDT_METRICS(X)                                                          \
  X(Counter, checkpoint_bytes, "checkpoint.bytes")                               \
  X(Counter, checkpoint_replayed, "checkpoint.replayed")                         \
  X(Counter, checkpoint_written, "checkpoint.written")                           \
  X(Counter, engine_get_dcsr_tile, "engine.get_dcsr_tile")                       \
  X(Counter, engine_tile_requests, "engine.tile_requests")                       \
  X(Counter, fault_detected, "fault.detected")                                   \
  X(Counter, fault_fallbacks, "fault.fallbacks")                                 \
  X(Counter, fault_injected, "fault.injected")                                   \
  X(Counter, fault_recovered, "fault.recovered")                                 \
  X(Counter, fault_timeout, "fault.timeout")                                     \
  X(Counter, fault_unrecovered, "fault.unrecovered")                             \
  X(Histogram, kernel_host_ms, "kernel.host_ms")                                 \
  X(Counter, kernel_runs, "kernel.runs")                                         \
  X(Counter, mem_merges, "mem.merges")                                           \
  X(Histogram, plan_build_ms, "plan.build_ms")                                   \
  X(Counter, plan_builds, "plan.builds")                                         \
  X(Histogram, plan_convert_ms, "plan.convert_ms")                               \
  X(Histogram, plan_profile_ms, "plan.profile_ms")                               \
  X(Counter, plan_cache_corrupt_evictions, "plan_cache.corrupt_evictions")       \
  X(Counter, plan_cache_evictions, "plan_cache.evictions")                       \
  X(Counter, plan_cache_hits, "plan_cache.hits")                                 \
  X(Counter, plan_cache_misses, "plan_cache.misses")                             \
  X(Counter, plan_cache_oversize, "plan_cache.oversize")                         \
  X(Gauge, plan_cache_resident_bytes, "plan_cache.resident_bytes")               \
  X(Counter, plan_cache_single_flight_shares, "plan_cache.single_flight_shares") \
  X(Counter, plan_cache_ttl_evictions, "plan_cache.ttl_evictions")               \
  X(Counter, proc_crashes, "proc.crashes")                                       \
  X(Histogram, proc_heartbeat_ms, "proc.heartbeat_ms")                           \
  X(Counter, proc_heartbeat_timeouts, "proc.heartbeat_timeouts")                 \
  X(Counter, proc_quarantines, "proc.quarantines")                               \
  X(Counter, proc_retries, "proc.retries")                                       \
  X(Counter, proc_spawns, "proc.spawns")                                         \
  X(Counter, service_accepted, "service.accepted")                               \
  X(Counter, service_coalesced_batches, "service.coalesced_batches")             \
  X(Counter, service_completed, "service.completed")                             \
  X(Histogram, service_exec_ms, "service.exec_ms")                               \
  X(Counter, service_failed, "service.failed")                                   \
  X(Gauge, service_queue_depth, "service.queue_depth")                           \
  X(Histogram, service_queue_ms, "service.queue_ms")                             \
  X(Counter, service_shed, "service.shed")                                       \
  X(Counter, service_submitted, "service.submitted")                             \
  X(Counter, suite_cancelled, "suite.cancelled")                                 \
  X(Histogram, suite_plan_ms, "suite.plan_ms")                                   \
  X(Counter, suite_runs, "suite.runs")

namespace nmdt::obs {

class Counter {
 public:
  void add(i64 delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  i64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two-bucketed histogram for non-negative samples (host
/// milliseconds, byte counts).  Bucket i holds samples ≤ 2^(i - kZero);
/// the span 2^-20 … 2^23 covers ns-scale spans to multi-second suites.
class Histogram {
 public:
  static constexpr int kBuckets = 44;
  static constexpr int kZero = 20;  ///< bucket index whose upper bound is 2^0

  void observe(double v);

  struct Snapshot {
    u64 count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
    std::array<u64, kBuckets> buckets{};
    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  };
  Snapshot snapshot() const;
  void reset();

  /// Upper bound of bucket i (2^(i - kZero)).
  static double bucket_bound(int i);

 private:
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<u64>, kBuckets> buckets_{};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricDecl {
  std::string_view name;
  MetricKind kind;
};

/// The catalogue as data, in declaration (= name) order.
inline constexpr MetricDecl kMetricCatalogue[] = {
#define NMDT_METRIC_DECL(type, member, name) {name, MetricKind::k##type},
    NMDT_METRICS(NMDT_METRIC_DECL)
#undef NMDT_METRIC_DECL
};

/// The declared metric called `name`, or nullptr.
const MetricDecl* find_metric(std::string_view name);

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented module reports into.
  static MetricsRegistry& global() {
    static constinit MetricsRegistry registry;
    return registry;
  }

#define NMDT_METRIC_MEMBER(type, member, name) type member;
  NMDT_METRICS(NMDT_METRIC_MEMBER)
#undef NMDT_METRIC_MEMBER

  /// By-name access for callers that hold a snapshot name (benches,
  /// tests).  Throws ConfigError for an undeclared name or a name of
  /// another kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every instrument in place.
  void reset();

  /// JSON snapshot of every declared instrument, names sorted,
  /// histograms with non-empty buckets rendered as
  /// {"le": bound, "count": n} pairs.
  void write_json(std::ostream& os) const;
  void write_json_file(const std::string& path) const;
};

inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace nmdt::obs
