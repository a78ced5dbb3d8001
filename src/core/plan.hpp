// Plan stage of the Plan → Cache → Execute pipeline.
//
// The paper's workloads re-run SpMM against many dense vector blocks
// (iterative eigensolvers, GNN layers — Sec. 2) while the sparse operand
// A stays fixed.  Everything derivable from A alone — the profile
// (Eq. 1/2), the SSF strategy decision, the chosen kernel, and the
// converted operand formats (CSC, DCSR, tiled DCSR, tiled CSR) — is
// therefore captured into one SpmmPlan and reused across calls, the
// amortized-preprocessing argument of Hong et al. and Yang/Buluç/Owens
// applied to this codebase.  Only what the kernel choice needs is built
// eagerly; each converted format is built on first use (DESIGN.md).
//
// A PlanCache keyed by a cheap matrix fingerprint (dims, nnz, hashes of
// row_ptr/col_idx/val — formats/fingerprint.hpp) with LRU eviction under
// a byte budget makes the reuse automatic: repeated SpmmEngine::run
// calls against the same A skip profiling and conversion entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

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

/// One lazily built artifact: built on first use, exactly once.
/// Concurrent first users share one build (single-flight); a build that
/// throws leaves the artifact unbuilt, so the next use retries.
template <class T>
class LazyArtifact {
 public:
  template <class Build>
  const T& get(Build&& build) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!value_) value_.emplace(build());
    return *value_;  // never written again once built
  }

 private:
  mutable std::mutex mu_;
  mutable std::optional<T> value_;
};

/// The result of planning: the profile, the strategy decision, the
/// retyped CSR, and every other operand format the kernels can consume,
/// each converted on first use.  Shareable across threads; everything a
/// caller can observe except bytes() is fixed at construction.
class SpmmPlan {
 public:
  /// Profile A and pick the kernel.  `A` is the canonical f32 matrix
  /// (the provenance rule of formats/retype.hpp): the fingerprint and
  /// the profile are computed from it, then the value arrays are
  /// retyped once to opts.precision, and every later conversion derives
  /// from that retyped CSR.  `A` is copied into the plan so the plan can
  /// outlive the caller's matrix (cache residency).  `fp`, when given,
  /// is A's fingerprint, already computed by the caller.
  SpmmPlan(const Csr& A, const PlanOptions& opts, const MatrixFingerprint* fp = nullptr);

  const PlanOptions& options() const { return options_; }
  Precision precision() const { return options_.precision; }
  const MatrixFingerprint& fingerprint() const { return fingerprint_; }
  const MatrixProfile& profile() const { return profile_; }
  Strategy strategy() const { return strategy_; }
  KernelKind kernel() const { return kernel_; }

  /// The kernel bundle for `kind` at precision V: the CSR plus exactly
  /// artifacts_of(kind) (kernels/spmm.hpp), each built here on first
  /// use.  ConfigError if V is not the plan's precision.
  template <class V>
  SpmmOperandsT<V> operands_for(KernelKind kind) const;

  /// The plan's CSR at precision V; ConfigError if V is not the plan's
  /// precision.
  template <class V>
  const CsrT<V>& csr_at() const { return operands<V>().csr; }

  /// Resident bytes of the artifacts built so far (the cache budget
  /// unit).
  i64 bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// Host wall-clock spent in the constructor (fingerprint, profile,
  /// retype); artifact conversions are paid by the executes that first
  /// use them.
  double build_ms() const { return build_ms_; }

 private:
  template <class V>
  struct Operands {
    CsrT<V> csr;
    LazyArtifact<CscT<V>> csc;
    LazyArtifact<DcsrT<V>> dcsr;
    LazyArtifact<TiledDcsrT<V>> tiled_dcsr;
    LazyArtifact<TiledCsrT<V>> tiled_csr;
  };

  template <class V>
  const Operands<V>& operands() const {
    const auto* ops = std::get_if<Operands<V>>(&ops_);
    NMDT_CHECK_CONFIG(ops != nullptr,
                      std::string("plan operands requested at precision ") +
                          precision_name(VTraits<V>::kPrecision) + " but plan was built at " +
                          precision_name(precision()));
    return *ops;
  }

  PlanOptions options_;
  MatrixFingerprint fingerprint_;
  MatrixProfile profile_;
  Strategy strategy_ = Strategy::kCStationary;
  KernelKind kernel_ = KernelKind::kDcsrCStationary;
  std::variant<Operands<float>, Operands<double>, Operands<bf16_t>> ops_;
  mutable std::atomic<i64> bytes_{0};
  double build_ms_ = 0.0;
};

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
  i64 bytes = 0;       ///< resident plans' bytes() as of the last lookup
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
///   * growing plans: every lookup charges the resident plans' growth
///     (artifacts built since) before evicting to the budget.
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
  /// The resident plans, most recently used first.
  std::vector<std::shared_ptr<const SpmmPlan>> resident() const;

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
    i64 charged = 0;  ///< plan->bytes() as last added to stats_.bytes
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

  /// Charge every resident plan's growth, then evict LRU entries until
  /// the charged total fits the budget.
  void charge_and_evict_locked();

  mutable std::mutex mu_;
  i64 budget_;
  double ttl_ms_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  std::unordered_map<Key, std::shared_ptr<InFlight>, KeyHash> inflight_;
  PlanCacheStats stats_;
};

}  // namespace nmdt
