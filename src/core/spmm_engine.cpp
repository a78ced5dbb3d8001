#include "core/spmm_engine.hpp"

#include "formats/retype.hpp"
#include "util/error.hpp"

namespace nmdt {

SpmmEngine::SpmmEngine(EngineOptions options) : options_(std::move(options)) {
  options_.spmm.arch.validate();
  options_.spmm.tiling.validate();
  NMDT_CHECK_CONFIG(
      options_.profile_sample_fraction > 0.0 && options_.profile_sample_fraction <= 1.0,
      "profile_sample_fraction must be in (0, 1]");
  if (options_.plan_cache_bytes > 0) {
    cache_ = std::make_shared<PlanCache>(options_.plan_cache_bytes);
  }
}

std::shared_ptr<const SpmmPlan> SpmmEngine::plan_for(const Csr& A, bool* was_hit) const {
  PlanOptions opts = plan_options_for(options_.spmm);
  opts.ssf_threshold = options_.ssf_threshold;
  opts.profile_sample_fraction = options_.profile_sample_fraction;
  if (cache_) return cache_->get_or_build(A, opts, was_hit);
  if (was_hit) *was_hit = false;
  return build_plan(A, opts);
}

PlanCacheStats SpmmEngine::cache_stats() const {
  return cache_ ? cache_->stats() : PlanCacheStats{};
}

SpmmResult SpmmEngine::run_kernel(KernelKind kind, const Csr& A,
                                  const DenseMatrix& B) const {
  return SpmmExecutor(options_.spmm).execute(kind, *plan_for(A), B);
}

SpmmReport SpmmEngine::run(const Csr& A, const DenseMatrix& B) const {
  SpmmReport report;
  const auto plan = plan_for(A, &report.plan_cache_hit);
  report.plan_build_ms = report.plan_cache_hit ? 0.0 : plan->build_ms();
  report.profile = plan->profile();
  report.chosen = plan->strategy();
  report.kernel = plan->kernel();

  const SpmmExecutor executor(options_.spmm);
  report.result = executor.execute(*plan, B);

  if (options_.verify) {
    if (options_.spmm.precision == Precision::kF32) {
      // The historical exact path, untouched: f32 kernels are bitwise
      // deterministic against the f32 reference.
      const DenseMatrix ref = spmm_reference(A, B);
      report.max_abs_error = report.result.C.max_abs_diff(ref);
    } else {
      // Cross-precision verification: widen everything to binary64 and
      // apply the fSPMV bound with per-row accumulation headroom.
      dispatch_precision(options_.spmm.precision, [&](auto tag) {
        using V = typename decltype(tag)::type;
        const CsrT<V>& a = plan->csr_at<V>();
        const DenseMatrixT<V> b = retype<V>(B);
        const DenseMatrixT<double> ref = spmm_reference_f64(a, b);
        const DenseMatrixT<double> actual = result_f64(report.result);
        report.max_abs_error = actual.max_abs_diff(ref);
        report.tolerance = ToleranceComparator(default_tolerance(options_.spmm.precision))
                               .compare(ref, actual, a, b);
      });
    }
  }
  if (options_.run_baseline) {
    report.baseline = executor.execute(KernelKind::kCsrCStationaryRowWarp, *plan, B);
    if (report.result.timing.total_ns > 0.0) {
      report.speedup_vs_baseline =
          report.baseline->timing.total_ns / report.result.timing.total_ns;
    }
  }
  return report;
}

}  // namespace nmdt
