// The top-level public API: profile a sparse matrix, pick the
// algorithm with the SSF heuristic (Sec. 3.1.4), run it on the GPU
// model, and report performance against the baseline — the full
// pipeline behind Fig. 16.
//
// Since the Plan → Cache → Execute split (DESIGN.md), the engine is a
// thin composition: planning (core/plan.hpp) captures everything
// derivable from A alone and is memoized in a per-engine PlanCache, so
// repeated run() calls against the same A — the multi-vector pattern of
// Sec. 2 — skip profiling and format conversion entirely; execution
// (core/executor.hpp) runs the cached plan against each B block.
#pragma once

#include <memory>
#include <optional>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "transform/comparator.hpp"

namespace nmdt {

struct EngineOptions {
  SpmmConfig spmm = evaluation_config();
  /// SSF decision threshold.  The shipped default was learned by
  /// training on the medium standard suite (bench/fig04_ssf_heuristic
  /// re-derives it); pass a trained value for other workload mixes.
  double ssf_threshold = default_ssf_threshold();
  /// Verify the kernel output against the dense reference (the paper
  /// verifies against cuSPARSE output, Sec. 5.1).  At the canonical f32
  /// precision the comparison is the historical exact max-abs-diff
  /// check; at other precisions the binary64 reference is compared
  /// under the fSPMV tolerance bound (transform/comparator.hpp) at the
  /// precision's default_tolerance().
  bool verify = true;
  /// Also run the baseline kernel and report speedup.
  bool run_baseline = true;
  /// Row fraction used to profile A; 1.0 scans the full matrix, smaller
  /// values use sampled SSF estimation (the paper's Sec. 3.1.4 future
  /// work; see analysis/sampling.hpp and bench/ssf_sampling).
  double profile_sample_fraction = 1.0;
  /// Byte budget of the per-engine plan cache; <= 0 disables caching
  /// (every run() builds a one-shot plan).
  i64 plan_cache_bytes = PlanCache::kDefaultByteBudget;
};

struct SpmmReport {
  MatrixProfile profile;
  Strategy chosen = Strategy::kCStationary;
  KernelKind kernel = KernelKind::kDcsrCStationary;
  SpmmResult result;
  std::optional<SpmmResult> baseline;  ///< CSR C-stationary row-per-warp
  double speedup_vs_baseline = 1.0;
  double max_abs_error = 0.0;  ///< vs dense reference when verify = true
  /// Tolerance verdict of the fSPMV-bound comparison; engaged only for
  /// non-f32 runs with verify = true (f32 keeps the exact check above).
  std::optional<ToleranceVerdict> tolerance;
  /// True when the plan came from the cache — i.e. this call performed
  /// no profiling, and converted only artifacts no earlier call's kernel
  /// had read.
  bool plan_cache_hit = false;
  /// Host wall-clock spent building the plan for this call (0 on a cache
  /// hit); artifact conversions are paid inside the kernel execute.
  double plan_build_ms = 0.0;
};

class SpmmEngine {
 public:
  explicit SpmmEngine(EngineOptions options = {});

  const EngineOptions& options() const { return options_; }

  /// Profile A (via the plan cache), select B- vs C-stationary via SSF,
  /// run, report.
  SpmmReport run(const Csr& A, const DenseMatrix& B) const;

  /// Run a specific kernel with this engine's configuration: bypasses
  /// the heuristic, but plans through the engine's plan cache like
  /// run(), so repeated calls on the same A convert once.
  SpmmResult run_kernel(KernelKind kind, const Csr& A, const DenseMatrix& B) const;

  /// The plan this engine would execute for A, from the cache when
  /// resident.  Exposed so callers can amortize explicitly (e.g. plan
  /// during setup, execute per block).  `was_hit` (optional) reports
  /// whether the cache served it.
  std::shared_ptr<const SpmmPlan> plan_for(const Csr& A, bool* was_hit = nullptr) const;

  /// Hit/miss/eviction counters of the engine's plan cache (all zero
  /// when caching is disabled).
  PlanCacheStats cache_stats() const;

 private:
  EngineOptions options_;
  std::shared_ptr<PlanCache> cache_;  ///< null when plan_cache_bytes <= 0
};

}  // namespace nmdt
