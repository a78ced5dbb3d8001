#include "core/executor.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <type_traits>

#include "core/suite_driver.hpp"
#include "formats/retype.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nmdt {

std::string SuiteRow::failure_summary() const {
  static constexpr std::array<const char*, kArmCount> kArmNames = {
      "baseline", "dcsr_c", "online_b", "offline_b"};
  if (!error.empty()) return "FAILED(" + error + ")";
  std::string out;
  for (int a = 0; a < kArmCount; ++a) {
    if (arm_error[static_cast<usize>(a)].empty()) continue;
    if (!out.empty()) out += "; ";
    out += std::string(kArmNames[static_cast<usize>(a)]) + ": " +
           arm_error[static_cast<usize>(a)];
  }
  return out.empty() ? std::string{} : "FAILED(" + out + ")";
}

SuiteErrorPolicy parse_error_policy(const std::string& name) {
  if (name == "fail_fast") return SuiteErrorPolicy::kFailFast;
  if (name == "continue") return SuiteErrorPolicy::kContinue;
  throw ConfigError("unknown suite error policy '" + name +
                    "' (expected fail_fast or continue)");
}

SpmmExecutor::SpmmExecutor(SpmmConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.arch.validate();
  cfg_.tiling.validate();
}

SpmmResult SpmmExecutor::execute(const SpmmPlan& plan, const DenseMatrix& B) const {
  return execute(plan.kernel(), plan, B);
}

SpmmResult SpmmExecutor::execute(KernelKind kind, const SpmmPlan& plan,
                                 const DenseMatrix& B) const {
  // Checked before operands_for converts anything for a call that
  // cannot run.
  NMDT_CHECK_CONFIG(plan.options().tiling == cfg_.tiling && plan.precision() == cfg_.precision,
                    "the plan's tiling or precision differs from the executor's config");
  return dispatch_precision(plan.precision(), [&](auto tag) -> SpmmResult {
    using V = typename decltype(tag)::type;
    const SpmmOperandsT<V> ops = plan.operands_for<V>(kind);
    if constexpr (std::is_same_v<V, value_t>) {
      return run_spmm<V>(kind, ops, B, cfg_);
    } else {
      // B arrives at the canonical f32 precision; retype per call (the
      // plan amortizes A's conversions, B changes every block anyway).
      const DenseMatrixT<V> b = retype<V>(B);
      return run_spmm<V>(kind, ops, b, cfg_);
    }
  });
}

SpmmResult run_one_shot(KernelKind kind, const Csr& A, const DenseMatrix& B,
                        const SpmmConfig& cfg) {
  const auto plan = build_plan(A, plan_options_for(cfg));
  return SpmmExecutor(cfg).execute(kind, *plan, B);
}

namespace {

/// run_suite's backend: row work on one shared ThreadPool, completions
/// handed to the driver thread through a queue.
class PoolBackend final : public suite::Backend {
 public:
  PoolBackend(suite::RowWork work, int jobs) : work_(std::move(work)), pool_(jobs) {}

  int concurrency() const override { return pool_.size(); }

  void submit(usize row, int arm, std::shared_ptr<const suite::RowInputs> inputs) override {
    pool_.submit([this, row, arm, inputs = std::move(inputs)] {
      suite::Completion c = arm < 0 ? work_.plan(row) : work_.arm(row, arm, *inputs);
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_.push_back(std::move(c));
      }
      cv_.notify_one();
    });
  }

  std::optional<suite::Completion> wait(double timeout_ms) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                      [this] { return !done_.empty(); })) {
      return std::nullopt;
    }
    suite::Completion c = std::move(done_.front());
    done_.pop_front();
    return c;
  }

  /// Queued tasks still run, but each polls the cancelled suite token on
  /// entry and comes back abandoned at once; waiting for them closes
  /// every abandoned arm's trace span inside the sweep.
  void abandon() override { pool_.wait_idle(); }

 private:
  const suite::RowWork work_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<suite::Completion> done_;
  ThreadPool pool_;  // last: joins before the queue its tasks feed goes away
};

}  // namespace

std::vector<SuiteRow> run_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                index_t K, const SuiteProgress& progress, int jobs,
                                SuiteErrorPolicy policy) {
  SuiteOptions opts;
  opts.jobs = jobs;
  opts.policy = policy;
  return run_suite(specs, cfg, K, progress, opts);
}

std::vector<SuiteRow> run_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                index_t K, const SuiteProgress& progress,
                                const SuiteOptions& opts) {
  return suite::drive_suite(
      specs, cfg, K, progress, opts,
      [&](suite::RowWork work) -> std::unique_ptr<suite::Backend> {
        return std::make_unique<PoolBackend>(std::move(work), opts.jobs);
      },
      /*c_crc_out=*/nullptr);
}

SsfThreshold train_threshold(std::span<const SuiteRow> rows) {
  std::vector<SsfSample> samples;
  samples.reserve(rows.size());
  for (const auto& r : rows) {
    samples.push_back({r.profile.ssf, r.ratio_c_over_b()});
  }
  return learn_ssf_threshold(samples);
}

}  // namespace nmdt
