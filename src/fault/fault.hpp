// Deterministic fault injection, detection accounting, and bounded
// retry for the transform → plan → cache → execute pipeline.
//
// The paper's central artifact — a near-memory unit fabricating tiled
// DCSR from CSC on demand (Sec. 4) — would, in real hardware, fail most
// dangerously by *silently* corrupting tile metadata or values.  This
// subsystem lets the functional model rehearse exactly that: a seeded
// FaultPlan names one injection site and a per-event probability, and
// every site's consumer pairs the injection with an integrity check
// (CRC32, structural validate(), fingerprint re-verification) plus a
// bounded deterministic recovery path.  The contract is strict: every
// injected fault ends as detected + recovered (outputs bit-identical to
// the fault-free run) or as a typed FaultError surfaced to the caller —
// never silent corruption.  With the site unset or the rate at zero the
// layer is a bitwise no-op.
//
// Determinism: an injection decision is a pure hash of (seed, site,
// event key), where the key derives from stable work coordinates
// (strip/tile ids, suite row × arm, shard index, fingerprints) — never
// from thread identity or shared counters — so the same faults fire at
// any --jobs and results stay comparable across job counts.
#pragma once

#include <atomic>
#include <string>

#include "util/types.hpp"

namespace nmdt::fault {

/// Named injection sites.  One plan targets one site; sweeps iterate.
enum class FaultSite : int {
  kNone = 0,
  kTileRowId,         ///< bit flip in a converted DCSR tile's row_idx
  kTileColIdx,        ///< bit flip in a converted DCSR tile's col_idx
  kTileVal,           ///< bit flip in a converted DCSR tile's val
  kCacheEntry,        ///< corrupted PlanCache entry observed on lookup
  kSuiteArm,          ///< transient (throwing) failure in a suite arm
  kShardExec,         ///< transient (throwing) failure in a kernel shard
  kSerializedStream,  ///< truncation of a serialized matrix on load
  kWorkerAbort,       ///< supervised worker process abort()s on task receipt
  kWorkerHang,        ///< supervised worker process wedges (heartbeats stop)
};

const char* site_name(FaultSite site);

/// Parse a site from its CLI spelling ("tile_val", "cache_entry", ...);
/// throws ConfigError on unknown names.
FaultSite parse_site(const std::string& name);

/// What to inject: one site, a per-event probability, and the seed that
/// makes the event sequence reproducible.
struct FaultPlan {
  FaultSite site = FaultSite::kNone;
  double rate = 0.0;  ///< per-event injection probability in [0, 1]
  u64 seed = 0;

  bool enabled() const { return site != FaultSite::kNone && rate > 0.0; }
  bool operator==(const FaultPlan&) const = default;
};

/// Retry budget shared by every recovery path (tile reconversion,
/// transient suite-arm / shard restarts): the initial attempt plus
/// kMaxRetries re-tries, after which a FaultError surfaces.
inline constexpr int kMaxRetries = 3;

/// Process-wide injector.  The plan is stored in relaxed atomics so hot
/// paths read it lock-free; concurrent installs of *different* plans
/// are unsupported (install from single-threaded points: CLI startup,
/// test bodies, run_suite entry).
class FaultInjector {
 public:
  static FaultInjector& global();

  void install(const FaultPlan& plan);
  FaultPlan plan() const;

  /// Pure decision: does the event identified by `key` inject at
  /// `site`?  False whenever the installed plan targets another site or
  /// the rate is zero — the rate-0 / site-none bitwise-no-op guarantee.
  bool should_inject(FaultSite site, u64 key) const;

 private:
  std::atomic<int> site_{0};
  std::atomic<u64> threshold_{0};  ///< rate mapped onto [0, 2^64)
  std::atomic<u64> seed_{0};
};

/// RAII plan installation (restores the previous plan on destruction).
class FaultScope {
 public:
  explicit FaultScope(const FaultPlan& plan);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultPlan prev_;
};

/// Deterministic 64-bit key combiner (splitmix64 finalization).
u64 mix(u64 a, u64 b);

/// Convenience: FaultInjector::global().should_inject(site, key).
bool should_inject(FaultSite site, u64 key);

// Fault lifecycle accounting into the fault_* catalogue counters.
// Invariant the chaos suite pins: detected == injected for detectable
// sites, and every detection sequence ends in exactly one recovered or
// unrecovered event.
void note_injected();
void note_detected();
void note_recovered();
void note_unrecovered();

/// Flip one deterministic bit of `bytes` bytes at `data` (bit position
/// is a pure function of `key`).  Returns false on an empty buffer —
/// nothing to corrupt, so the caller must not count an injection.
bool flip_bit(void* data, usize bytes, u64 key);

/// Transient-failure injection point for restartable work units (suite
/// arms, kernel shards): called *before* the unit does any work, so a
/// retry is a clean re-run.  Each attempt re-draws the injection with
/// the attempt index mixed into the key; recovered retries are counted
/// and traced ("fault.retry" spans), and kMaxRetries consecutive
/// injections surface a FaultError.
void transient_point(FaultSite site, u64 key);

}  // namespace nmdt::fault
