// The one suite driver behind run_suite (core/executor.hpp) and
// proc::run_suite_isolated (proc/suite.hpp).
//
// drive_suite runs on the calling thread and alone owns durability
// (fingerprint, replay, torn-tail truncation, the JournalWriter,
// on_checkpoint), replay prefill, a bounded window of rows in flight,
// cancellation and the suite deadline, lowest-(row, arm) failure
// ranking, the fixed (row, arm) merge order, progress, and the suite
// metrics.  A Backend — pool threads or supervised worker processes —
// only runs tasks and hands completions back.  Both backends run the
// same RowWork functions, so which thread or process computes a
// (row, arm) never changes its bits, and a journal written under one
// backend resumes under the other.
#pragma once

#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"

namespace nmdt {

/// Per-(row, arm) CRC32 of the C output, for pinning cross-process value
/// bit-identity.  Replayed and failed arms stay 0.
using SuiteCrcs = std::vector<std::array<u32, SuiteRow::kArmCount>>;

namespace suite {

/// A planned row: the plan its four arms share and its B block.
struct RowInputs {
  std::shared_ptr<const SpmmPlan> plan;
  DenseMatrix B;
};

/// One finished task, as a backend reports it to the driver.
struct Completion {
  usize row = 0;
  int arm = -1;  ///< SuiteRow::Arm, or -1 for the row's plan task
  bool abandoned = false;  ///< cancelled: dropped, re-run on resume
  /// Typed failure (null on success) and its describe_exception() label.
  std::exception_ptr error;
  std::string error_desc;
  // Plan task.
  bool degenerate = false;  ///< the generated matrix has no non-zeros
  MatrixProfile profile;
  std::shared_ptr<const RowInputs> inputs;  ///< for the arm tasks; null in proc
  // Arm task.
  double t_ms = 0.0;
  double prep_ms = 0.0;  ///< offline preprocessing cost (offline arm only)
  u32 c_crc = 0;         ///< only computed when want_crc
};

/// The row work both backends run: pure functions of (spec, cfg, K,
/// row, arm) that report failures in the Completion instead of throwing.
struct RowWork {
  std::vector<MatrixSpec> specs;
  SpmmConfig cfg;
  index_t K = 0;
  double arm_timeout_ms = 0.0;
  /// Polled while planning; parent of every arm's deadline token.
  CancelToken cancel;
  u64 track = 0;  ///< trace track the row and arm lanes derive from
  bool want_crc = false;

  /// Generate row `row`'s matrix, plan it, and seed its B block.
  Completion plan(usize row) const;
  /// Run one kernel arm against a planned row.
  Completion arm(usize row, int arm, const RowInputs& in) const;
};

/// Where tasks execute; called only from the driver's thread.
class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;
  /// Tasks that can run at once; sizes the driver's row window.
  virtual int concurrency() const = 0;
  /// Queue row `row`'s plan task (arm < 0) or one of its arms; arm
  /// tasks get the plan completion's `inputs` back.
  virtual void submit(usize row, int arm, std::shared_ptr<const RowInputs> inputs) = 0;
  /// The next completion, or nullopt when none arrived in `timeout_ms`.
  virtual std::optional<Completion> wait(double timeout_ms) = 0;
  /// Cancellation: stop in-flight work.  Its completions are dropped.
  virtual void abandon() = 0;
};

/// Called only when live work remains: a pure replay starts no backend.
using BackendFactory = std::function<std::unique_ptr<Backend>(RowWork work)>;

/// The run_suite contract (core/executor.hpp) over any backend;
/// `c_crc_out` (optional) receives every live arm's C checksum.
std::vector<SuiteRow> drive_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                  index_t K, const SuiteProgress& progress,
                                  const SuiteOptions& opts, const BackendFactory& make_backend,
                                  SuiteCrcs* c_crc_out);

}  // namespace suite
}  // namespace nmdt
