#include "proc/suite.hpp"

#include <map>
#include <tuple>
#include <utility>

#include "core/journal.hpp"
#include "fault/fault.hpp"
#include "proc/frame.hpp"
#include "util/error.hpp"

namespace nmdt::proc {

namespace {

// Task kinds on the supervisor pipe.
constexpr u8 kTaskPlanRow = 1;  ///< payload {u32 row} → u8 status [+ profile]
constexpr u8 kTaskRunArm = 2;   ///< payload {u32 row, u8 arm} → {f64 t, f64 prep, u32 crc}

/// Runs in the worker process.  The worker keeps the last row it
/// planned: task affinity keys on the row, so the common case is four
/// arm tasks reusing the plan/B their own worker just built; a miss
/// (retry on a fresh worker, affinity steal) re-plans — a pure function
/// of the row, so a rebuild can only cost time.
TaskHandler make_suite_handler(suite::RowWork work) {
  struct RowCache {
    usize row = static_cast<usize>(-1);
    std::shared_ptr<const suite::RowInputs> inputs;
  };
  auto cache = std::make_shared<RowCache>();
  return [work = std::move(work), cache](u8 kind, u64 /*key*/,
                                         const std::string& payload) -> std::string {
    // Handler exceptions travel back as typed descriptions.
    auto plan = [&](usize row) {
      suite::Completion c = work.plan(row);
      if (c.error) std::rethrow_exception(c.error);
      cache->row = row;
      cache->inputs = c.inputs;
      return c;
    };
    FieldReader r(payload, kPipeRules);
    const usize row = r.get_u32("task row");
    FieldWriter w(kPipeRules);
    if (kind == kTaskPlanRow) {
      r.expect_done("plan task");
      const suite::Completion c = plan(row);
      w.put_u8(c.degenerate ? 0 : 1);
      if (!c.degenerate) w.put_str(encode_profile(c.profile));
      return w.out;
    }
    const int arm = static_cast<int>(r.get_u8("arm-task arm"));
    r.expect_done("arm task");
    if (cache->row != row && plan(row).degenerate) {
      // The parent only dispatches arms for rows whose plan task
      // reported non-degenerate; a degenerate rebuild means the spec's
      // generator is not a pure function — surface loudly.
      throw ParseError("arm task for row " + std::to_string(row) +
                       " regenerated as a degenerate matrix");
    }
    const suite::Completion c = work.arm(row, arm, *cache->inputs);
    if (c.error) std::rethrow_exception(c.error);
    w.put_f64(c.t_ms);
    w.put_f64(c.prep_ms);
    w.put_u32(c.c_crc);
    return w.out;
  };
}

/// run_suite_isolated's backend: every task runs in a supervised worker
/// process.  Payloads carry only (row, arm) coordinates; results come
/// back as raw f64 / encoded-profile bits.
class ProcBackend final : public suite::Backend {
 public:
  ProcBackend(const ProcOptions& po, suite::RowWork work)
      : workers_(po.workers), sup_(po, make_suite_handler(std::move(work))) {}

  int concurrency() const override { return workers_; }

  void submit(usize row, int arm, std::shared_ptr<const suite::RowInputs> /*inputs*/) override {
    FieldWriter w(kPipeRules);
    w.put_u32(static_cast<u32>(row));
    if (arm >= 0) w.put_u8(static_cast<u8>(arm));
    const u64 r = static_cast<u64>(row);
    const u64 key = arm < 0 ? fault::mix(0x704c, r) : fault::mix(r, static_cast<u64>(arm));
    const u64 id = sup_.submit(arm < 0 ? kTaskPlanRow : kTaskRunArm, key, std::move(w.out), r);
    inflight_.emplace(id, std::pair<usize, int>{row, arm});
  }

  std::optional<suite::Completion> wait(double timeout_ms) override {
    const auto done = sup_.wait_completion(timeout_ms);
    if (!done) return std::nullopt;
    const auto it = inflight_.find(done->id);
    if (it == inflight_.end()) return std::nullopt;
    suite::Completion c;
    std::tie(c.row, c.arm) = it->second;
    inflight_.erase(it);
    const TaskOutcome& out = done->outcome;
    if (!out.ok) {
      // A typed handler failure or a WorkerError quarantine, as its
      // description: rebuild a throwable of the same type.
      c.error = exception_from_description(out.error);
      c.error_desc = out.error;
      return c;
    }
    FieldReader r(out.payload, kPipeRules);
    if (c.arm < 0) {
      c.degenerate = r.get_u8("plan result status") == 0;
      if (!c.degenerate) c.profile = decode_profile(r.get_str("plan result profile"));
      r.expect_done("plan result");
    } else {
      c.t_ms = r.get_f64("arm result time");
      c.prep_ms = r.get_f64("arm result prep");
      c.c_crc = r.get_u32("arm result crc");
      r.expect_done("arm result");
    }
    return c;
  }

  /// In-flight tasks complete as WorkerError, which nobody reads.
  void abandon() override { sup_.shutdown(); }

 private:
  int workers_;
  Supervisor sup_;
  std::map<u64, std::pair<usize, int>> inflight_;
};

}  // namespace

std::vector<SuiteRow> run_suite_isolated(std::span<const MatrixSpec> specs,
                                         const SpmmConfig& cfg, index_t K,
                                         const SuiteProgress& progress,
                                         const SuiteOptions& opts,
                                         const ProcOptions& proc_opts,
                                         SuiteCrcs* c_crc_out) {
  return suite::drive_suite(
      specs, cfg, K, progress, opts,
      [&](suite::RowWork work) -> std::unique_ptr<suite::Backend> {
        // A forked worker cannot see later requests on the parent's
        // token: the driver stops workers through abandon() instead.
        // Each arm's own deadline still runs in the worker.
        work.cancel = CancelToken{};
        return std::make_unique<ProcBackend>(proc_opts, std::move(work));
      },
      c_crc_out);
}

}  // namespace nmdt::proc
