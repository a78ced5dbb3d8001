#include "fault/fault.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt::fault {

const char* site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kNone: return "none";
    case FaultSite::kTileRowId: return "tile_row_id";
    case FaultSite::kTileColIdx: return "tile_col_idx";
    case FaultSite::kTileVal: return "tile_val";
    case FaultSite::kCacheEntry: return "cache_entry";
    case FaultSite::kSuiteArm: return "suite_arm";
    case FaultSite::kShardExec: return "shard_exec";
    case FaultSite::kSerializedStream: return "serialized_stream";
    case FaultSite::kWorkerAbort: return "worker_abort";
    case FaultSite::kWorkerHang: return "worker_hang";
  }
  return "unknown";
}

FaultSite parse_site(const std::string& name) {
  for (FaultSite s : {FaultSite::kNone, FaultSite::kTileRowId, FaultSite::kTileColIdx,
                      FaultSite::kTileVal, FaultSite::kCacheEntry, FaultSite::kSuiteArm,
                      FaultSite::kShardExec, FaultSite::kSerializedStream,
                      FaultSite::kWorkerAbort, FaultSite::kWorkerHang}) {
    if (name == site_name(s)) return s;
  }
  throw ConfigError("unknown fault site '" + name +
                    "' (expected one of: none, tile_row_id, tile_col_idx, tile_val, "
                    "cache_entry, suite_arm, shard_exec, serialized_stream, "
                    "worker_abort, worker_hang)");
}

namespace {

/// splitmix64: the standard 64-bit finalizer — enough avalanche that
/// threshold comparison approximates an independent Bernoulli draw per
/// (seed, site, key) triple.
u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

u64 rate_to_threshold(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return ~u64{0};
  // 2^64 * rate, computed in long double to keep the top bits honest.
  return static_cast<u64>(std::ldexp(static_cast<long double>(rate), 64));
}

double threshold_to_rate(u64 threshold) {
  if (threshold == ~u64{0}) return 1.0;
  return static_cast<double>(std::ldexp(static_cast<long double>(threshold), -64));
}

}  // namespace

FaultInjector& FaultInjector::global() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::install(const FaultPlan& plan) {
  site_.store(static_cast<int>(plan.site), std::memory_order_relaxed);
  threshold_.store(rate_to_threshold(plan.rate), std::memory_order_relaxed);
  seed_.store(plan.seed, std::memory_order_relaxed);
}

FaultPlan FaultInjector::plan() const {
  FaultPlan p;
  p.site = static_cast<FaultSite>(site_.load(std::memory_order_relaxed));
  p.rate = threshold_to_rate(threshold_.load(std::memory_order_relaxed));
  p.seed = seed_.load(std::memory_order_relaxed);
  return p;
}

bool FaultInjector::should_inject(FaultSite site, u64 key) const {
  if (site == FaultSite::kNone) return false;
  if (static_cast<FaultSite>(site_.load(std::memory_order_relaxed)) != site) return false;
  const u64 threshold = threshold_.load(std::memory_order_relaxed);
  if (threshold == 0) return false;
  const u64 seed = seed_.load(std::memory_order_relaxed);
  const u64 draw =
      splitmix64(seed ^ splitmix64(static_cast<u64>(site) ^ splitmix64(key)));
  if (threshold == ~u64{0}) return true;  // rate 1.0: every event fires
  return draw < threshold;
}

FaultScope::FaultScope(const FaultPlan& plan) : prev_(FaultInjector::global().plan()) {
  FaultInjector::global().install(plan);
}

FaultScope::~FaultScope() { FaultInjector::global().install(prev_); }

u64 mix(u64 a, u64 b) { return splitmix64(a ^ splitmix64(b)); }

bool should_inject(FaultSite site, u64 key) {
  return FaultInjector::global().should_inject(site, key);
}

void note_injected() { obs::metrics().fault_injected.add(1); }
void note_detected() { obs::metrics().fault_detected.add(1); }
void note_recovered() { obs::metrics().fault_recovered.add(1); }
void note_unrecovered() { obs::metrics().fault_unrecovered.add(1); }

bool flip_bit(void* data, usize bytes, u64 key) {
  if (bytes == 0) return false;
  const u64 bit = mix(key, 0x51BB1EDB17ULL) % (static_cast<u64>(bytes) * 8);
  static_cast<u8*>(data)[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  return true;
}

void transient_point(FaultSite site, u64 key) {
  // Fast path: no plan targeting this site (the rate-0 bitwise no-op).
  if (!should_inject(site, mix(key, 0))) return;
  int injected = 0;
  for (int attempt = 0;; ++attempt) {
    if (!should_inject(site, mix(key, static_cast<u64>(attempt)))) {
      // The transient cleared on this re-run: every prior injection in
      // the sequence is accounted as recovered.
      for (int i = 0; i < injected; ++i) note_recovered();
      return;
    }
    note_injected();
    note_detected();
    ++injected;
    if (attempt >= kMaxRetries) {
      note_unrecovered();
      throw FaultError(std::string("injected transient failure at ") + site_name(site) +
                       " persisted through " + std::to_string(kMaxRetries) + " retries");
    }
    obs::TraceSpan span("fault.retry");
    span.arg("site", site_name(site)).arg("attempt", attempt + 1);
  }
}

}  // namespace nmdt::fault
