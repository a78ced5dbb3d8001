// Execute stage of the Plan → Cache → Execute pipeline.
//
// An SpmmExecutor runs a previously built SpmmPlan against any
// conforming dense B (B.rows == A.cols): the kernels consume the plan's
// operand formats, so no profiling happens on the execution path and at
// most one conversion per artifact per plan — the first execute whose
// kernel reads an artifact builds it (SpmmPlan::operands_for).  It is
// the only caller of the kernel entry (run_spmm, kernels/spmm.hpp).
//
// run_suite — the Fig. 4 / Fig. 16 sweep — is declared here too: each
// suite matrix is planned once and its four kernel arms execute against
// the shared plan, with rows and arms fanned out across one shared
// ThreadPool.  run_suite and proc::run_suite_isolated are two backends
// (pool threads, supervised worker processes) of one suite driver
// (core/suite_driver.hpp), which runs on the calling thread and owns
// journaling, replay, cancellation, failure ranking, merge order and
// progress.  Results are bit-identical at any job or worker count:
// every task is a deterministic function of (spec, cfg, K, row index)
// — matrix generation and the B block use per-row RNG seeding — and
// rows are assembled in spec order.  The SuiteProgress callback is
// always invoked from the calling thread with monotonically increasing
// `done`, regardless of completion order.
//
// Durable execution (SuiteOptions): a sweep can journal every completed
// unit of work to a checkpoint file (core/journal.hpp), honor
// cooperative cancellation (SIGINT via a shared CancelToken), and
// enforce per-arm / whole-sweep deadlines.  The contract all three
// share: interrupt at ANY point + resume from the journal is
// bit-identical to an uninterrupted run, under either backend.
// Cancelled arms are therefore *abandoned* — not journaled, not
// recorded as errors — so the resumed sweep re-executes them from
// scratch, while timed-out arms are *typed failures* (TimeoutError)
// that land in the journal and the suite table like any other arm
// error.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "core/plan.hpp"
#include "matgen/suite.hpp"
#include "util/cancel.hpp"

namespace nmdt {

class SpmmExecutor {
 public:
  explicit SpmmExecutor(SpmmConfig cfg);

  const SpmmConfig& config() const { return cfg_; }

  /// Run the plan's chosen kernel against B.
  SpmmResult execute(const SpmmPlan& plan, const DenseMatrix& B) const;

  /// Run a specific kernel against B using the plan's operands
  /// (bypasses the plan's heuristic decision).  ConfigError when the
  /// plan's tiling or precision differs from the executor's.
  SpmmResult execute(KernelKind kind, const SpmmPlan& plan, const DenseMatrix& B) const;

 private:
  SpmmConfig cfg_;
};

/// One-shot multiplication: build_plan(A, plan_options_for(cfg)), then
/// SpmmExecutor(cfg).execute(kind, plan, B).  Profiles A and converts
/// the formats `kind` reads on each call; reuse one plan when A is
/// multiplied repeatedly.
SpmmResult run_one_shot(KernelKind kind, const Csr& A, const DenseMatrix& B,
                        const SpmmConfig& cfg);

/// One row of a suite sweep: everything Fig. 4 / Fig. 16 plot per
/// matrix.
struct SuiteRow {
  /// Index of a kernel arm in `arm_error` (the four Fig. 16 arms).
  enum Arm : int { kArmBaseline = 0, kArmDcsrC, kArmOnlineB, kArmOfflineB, kArmCount };

  MatrixSpec spec;
  MatrixProfile profile;
  double t_baseline_ms = 0.0;      ///< CSR C-stationary row-per-warp
  double t_dcsr_c_ms = 0.0;        ///< untiled DCSR C-stationary
  double t_online_b_ms = 0.0;      ///< online tiled DCSR B-stationary
  double t_offline_b_ms = 0.0;     ///< offline tiled DCSR B-stationary
  double offline_prep_ms = 0.0;    ///< tiling preprocessing cost

  /// Row-level failure (matrix generation or planning threw): the
  /// "TypeName: what()" description; empty on success.
  std::string error;
  /// Per-arm failures (the arm's kernel threw); timings of failed arms
  /// stay zero.
  std::array<std::string, kArmCount> arm_error{};

  bool ok() const {
    if (!error.empty()) return false;
    for (const auto& e : arm_error) {
      if (!e.empty()) return false;
    }
    return true;
  }
  /// "FAILED(<typed error>)" for reporting; empty string when ok().
  std::string failure_summary() const;

  double ratio_c_over_b() const { return t_dcsr_c_ms / t_online_b_ms; }
  double speedup_c_arm() const { return t_baseline_ms / t_dcsr_c_ms; }
  double speedup_online_b_arm() const { return t_baseline_ms / t_online_b_ms; }
  double speedup_offline_b_arm() const { return t_baseline_ms / t_offline_b_ms; }
};

/// What run_suite does with typed failures in row/arm tasks.  Either
/// way every already-submitted task drains (determinism: no early
/// abort); the policies differ only in what happens afterwards.
enum class SuiteErrorPolicy {
  kFailFast,  ///< rethrow the lowest-(row, arm) failure once all tasks drain
  kContinue,  ///< record FAILED rows/arms and return every row
};

/// Parse "fail_fast" / "continue"; throws ConfigError on anything else.
SuiteErrorPolicy parse_error_policy(const std::string& name);

/// Called once per completed (non-degenerate) matrix, from the thread
/// that called run_suite, with `done` strictly increasing from 1.
using SuiteProgress = std::function<void(usize done, usize total, const SuiteRow&)>;

/// Durability / scheduling knobs for run_suite.  Defaults reproduce the
/// classic in-memory sweep: no journal, no deadlines, never cancelled.
struct SuiteOptions {
  /// Shared thread-pool size; <= 0 uses hardware concurrency.
  int jobs = 0;
  SuiteErrorPolicy policy = SuiteErrorPolicy::kFailFast;
  /// Checkpoint-journal path; empty disables journaling.
  std::string journal_path;
  /// Replay `journal_path` before running and execute only the
  /// remainder.  The journal must match this sweep's fingerprint
  /// (ConfigError otherwise); a missing-but-empty or fresh journal is a
  /// clean start.
  bool resume = false;
  /// fsync the journal every N appended entries (>= 1).  Larger
  /// intervals trade post-crash re-execution for fewer syncs.
  int checkpoint_interval = 1;
  /// Deadline per kernel arm, in milliseconds; <= 0 disables.  An arm
  /// over its deadline is cancelled cooperatively and recorded as a
  /// typed TimeoutError arm failure under `policy`.
  double arm_timeout_ms = 0.0;
  /// Deadline for the whole sweep, in milliseconds; <= 0 disables.
  /// Expiry cancels every in-flight arm and run_suite throws
  /// TimeoutError after the drain.
  double suite_timeout_ms = 0.0;
  /// External cancellation (e.g. a SIGINT handler).  CancelToken copies
  /// share state, so the caller keeps a copy and request()s it.
  CancelToken cancel{};
  /// Diagnostic/test hook invoked after every journal append with the
  /// writer's entry count; called from the thread that called run_suite.
  std::function<void(usize entries)> on_checkpoint;
};

/// Run the four Fig. 16 kernels over a suite with dense B of K columns.
/// Rows are bit-identical across job counts AND across
/// interrupt/resume cycles (see SuiteOptions).  `cfg.fault` (when set)
/// is installed for the whole sweep.  Throws CancelledError when
/// `opts.cancel` fires (after abandoning in-flight work and writing the
/// final checkpoint) and TimeoutError when the suite deadline expires.
std::vector<SuiteRow> run_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                index_t K, const SuiteProgress& progress,
                                const SuiteOptions& opts);

/// Classic entry point: in-memory sweep, no journal or deadlines.
std::vector<SuiteRow> run_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                index_t K, const SuiteProgress& progress = {},
                                int jobs = 0,
                                SuiteErrorPolicy policy = SuiteErrorPolicy::kFailFast);

/// Derive the SSF threshold from completed suite rows (the Fig. 4
/// training pass).
SsfThreshold train_threshold(std::span<const SuiteRow> rows);

}  // namespace nmdt
