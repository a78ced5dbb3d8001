// Plan stage of the Plan → Cache → Execute pipeline.
//
// The paper's workloads re-run SpMM against many dense vector blocks
// (iterative eigensolvers, GNN layers — Sec. 2) while the sparse operand
// A stays fixed.  Everything derivable from A alone — the profile
// (Eq. 1/2), the SSF strategy decision, the chosen kernel, and the
// pre-converted operand formats (CSC, DCSR, tiled DCSR, tiled CSR) — is
// therefore captured once into an immutable SpmmPlan and reused across
// calls, the amortized-preprocessing argument of Hong et al. and
// Yang/Buluç/Owens applied to this codebase.
//
// A PlanCache keyed by a cheap matrix fingerprint (dims, nnz, hashes of
// row_ptr/col_idx/val — formats/fingerprint.hpp) with LRU eviction under
// a byte budget makes the reuse automatic: repeated SpmmEngine::run
// calls against the same A skip profiling and conversion entirely.
#pragma once

#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "analysis/heuristic.hpp"
#include "analysis/profile.hpp"
#include "formats/fingerprint.hpp"
#include "kernels/spmm.hpp"
#include "util/error.hpp"

namespace nmdt {

/// SSF decision threshold learned on the medium standard suite under
/// evaluation_config() (bench/fig04_ssf_heuristic re-derives and prints
/// the trained value; EXPERIMENTS.md records the training accuracy).
double default_ssf_threshold();

/// Everything that changes what a plan contains.  Two calls with equal
/// PlanOptions and equal matrices share one cache entry.
struct PlanOptions {
  TilingSpec tiling{64, 64};
  double ssf_threshold = default_ssf_threshold();
  /// Row fraction used to profile A; < 1 uses sampled SSF estimation
  /// (analysis/sampling.hpp).
  double profile_sample_fraction = 1.0;
  /// Stored value precision of the plan's converted operand formats.
  /// Plans at different precisions are distinct cache entries — the
  /// fingerprint covers the canonical f32 input, so the precision must
  /// participate in the key or a bf16 plan would alias an f32 one.
  Precision precision = Precision::kF32;

  bool operator==(const PlanOptions&) const = default;
};

/// The plan options a kernel run under `cfg` needs: cfg's tiling and
/// precision, the shipped SSF threshold, full-matrix profiling.
PlanOptions plan_options_for(const SpmmConfig& cfg);

/// The converted operand formats of one plan, stored at precision V.
/// Structural layouts are precision-independent; only the value arrays
/// (and hence bytes()) change width.
template <class V>
struct PlanOperandsT {
  CsrT<V> csr;
  CscT<V> csc;
  DcsrT<V> dcsr;
  TiledDcsrT<V> tiled_dcsr;
  TiledCsrT<V> tiled_csr;
  StripNnz strip_nnz;

  /// Non-owning kernel bundle over these formats (the PlanOperandsT
  /// must outlive any kernel call using it).
  SpmmOperandsT<V> bundle() const;
  /// Resident bytes of all artifacts (the cache budget unit).
  i64 bytes() const;
};

/// Immutable result of planning: the profile, the strategy decision, and
/// every operand format the kernels can consume, converted once.
class SpmmPlan {
 public:
  /// Profile A and convert all operand formats.  `A` is the canonical
  /// f32 matrix (the provenance rule of formats/retype.hpp): the
  /// fingerprint and the profile are computed from it, then the value
  /// arrays are retyped once to opts.precision and every operand format
  /// is derived at that precision.  `A` is copied into the plan so the
  /// plan can outlive the caller's matrix (cache residency).
  SpmmPlan(const Csr& A, const PlanOptions& opts);

  const PlanOptions& options() const { return options_; }
  Precision precision() const { return options_.precision; }
  const MatrixFingerprint& fingerprint() const { return fingerprint_; }
  const MatrixProfile& profile() const { return profile_; }
  Strategy strategy() const { return strategy_; }
  KernelKind kernel() const { return kernel_; }

  /// The one way into the plan's converted formats: the typed operand
  /// set at precision V (`.bundle()` gives the kernel view over it);
  /// ConfigError if V is not the plan's precision.
  template <class V>
  const PlanOperandsT<V>& operands_at() const;

  /// Resident bytes of all converted artifacts (the cache budget unit).
  i64 bytes() const { return bytes_; }

  /// Host wall-clock spent building this plan (profiling + conversions).
  double build_ms() const { return build_ms_; }

 private:
  PlanOptions options_;
  MatrixFingerprint fingerprint_;
  MatrixProfile profile_;
  Strategy strategy_ = Strategy::kCStationary;
  KernelKind kernel_ = KernelKind::kDcsrCStationary;
  std::variant<PlanOperandsT<float>, PlanOperandsT<double>, PlanOperandsT<bf16_t>> ops_;
  i64 bytes_ = 0;
  double build_ms_ = 0.0;
};

template <class V>
const PlanOperandsT<V>& SpmmPlan::operands_at() const {
  const auto* ops = std::get_if<PlanOperandsT<V>>(&ops_);
  NMDT_CHECK_CONFIG(ops != nullptr,
                    std::string("plan operands requested at precision ") +
                        precision_name(VTraits<V>::kPrecision) + " but plan was built at " +
                        precision_name(precision()));
  return *ops;
}

/// One-shot planning without a cache.
std::shared_ptr<const SpmmPlan> build_plan(const Csr& A, const PlanOptions& opts = {});

struct PlanCacheStats {
  u64 hits = 0;
  u64 misses = 0;      ///< lookups that had to build a plan
  u64 evictions = 0;   ///< entries dropped by the LRU byte budget
  u64 oversize = 0;    ///< plans larger than the whole budget (built, not stored)
  /// Entries whose fingerprint re-verification failed on lookup (real or
  /// injected corruption); each was evicted and rebuilt as a miss.
  u64 corrupt_evictions = 0;
  /// Entries past the TTL at lookup time; each was evicted and rebuilt
  /// as a miss (0 forever when the cache has no TTL).
  u64 ttl_evictions = 0;
  /// Lookups that joined another thread's in-flight build of the same
  /// key instead of building a duplicate (single-flight).  Counted in
  /// `hits` too — the share got a plan without paying for one — so the
  /// conservation invariant stays hits + misses == completed lookups
  /// and misses == plan builds started.
  u64 single_flight_shares = 0;
  i64 bytes = 0;       ///< current resident artifact bytes
  i64 byte_budget = 0;
  usize entries = 0;
};

/// Thread-safe LRU plan cache with a byte budget — the shared service
/// tier of the Plan → Cache → Execute pipeline, shareable between an
/// engine, the suite runner's workers, and the request daemon.
///
/// Concurrency hardening for the service tier:
///   * single-flight builds: N concurrent get_or_build calls for one
///     (fingerprint, options) key build the plan exactly once; the
///     N − 1 latecomers block on the builder and share its result (or
///     rethrow its typed failure).
///   * TTL: entries older than `ttl_ms` at lookup are evicted and
///     rebuilt, bounding how long a long-lived daemon serves a plan
///     whose backing file may have changed on disk.  0 disables.
///   * corrupt-entry evict-and-rebuild (fingerprint re-verification on
///     every hit) is preserved under contention: the rebuild after a
///     corrupt eviction is itself single-flighted.
class PlanCache {
 public:
  static constexpr i64 kDefaultByteBudget = i64{512} << 20;  // 512 MiB

  explicit PlanCache(i64 byte_budget = kDefaultByteBudget, double ttl_ms = 0.0);

  /// Return the cached plan for (A, opts), building and inserting it on
  /// a miss.  `was_hit` (optional) reports which path was taken
  /// (single-flight shares report as hits).
  std::shared_ptr<const SpmmPlan> get_or_build(const Csr& A, const PlanOptions& opts,
                                               bool* was_hit = nullptr);

  PlanCacheStats stats() const;
  void clear();

 private:
  using Clock = std::chrono::steady_clock;

  struct Key {
    MatrixFingerprint fp;
    PlanOptions opts;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    usize operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const SpmmPlan> plan;
    Clock::time_point built_at;
  };
  /// Rendezvous for one in-flight build: the builder publishes the plan
  /// (or its exception) and notifies; latecomers wait on `cv`.
  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const SpmmPlan> plan;
    std::exception_ptr error;
  };
  using LruList = std::list<std::pair<Key, Entry>>;

  void evict_to_budget_locked();

  mutable std::mutex mu_;
  i64 budget_;
  double ttl_ms_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  std::unordered_map<Key, std::shared_ptr<InFlight>, KeyHash> inflight_;
  PlanCacheStats stats_;
};

}  // namespace nmdt
