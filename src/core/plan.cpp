#include "core/plan.hpp"

#include "analysis/sampling.hpp"
#include "fault/fault.hpp"
#include "formats/footprint.hpp"
#include "formats/retype.hpp"
#include "obs/profiler.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt {

double default_ssf_threshold() {
  // Learned on the medium standard suite under evaluation_config()
  // (bench/fig04_ssf_heuristic re-derives and prints the trained value).
  return 3.2e4;
}

PlanOptions plan_options_for(const SpmmConfig& cfg) {
  return {cfg.tiling, default_ssf_threshold(), 1.0, cfg.precision};
}

template <class V>
SpmmOperandsT<V> PlanOperandsT<V>::bundle() const {
  SpmmOperandsT<V> ops;
  ops.csr = &csr;
  ops.csc = &csc;
  ops.dcsr = &dcsr;
  ops.tiled_dcsr = &tiled_dcsr;
  ops.tiled_csr = &tiled_csr;
  ops.strip_nnz = &strip_nnz;
  return ops;
}

template <class V>
i64 PlanOperandsT<V>::bytes() const {
  return footprint(csr).total() + footprint(csc).total() + footprint(dcsr).total() +
         footprint(tiled_dcsr).total() + footprint(tiled_csr).total() +
         static_cast<i64>(strip_nnz.counts.size()) * static_cast<i64>(sizeof(i64));
}

template struct PlanOperandsT<float>;
template struct PlanOperandsT<double>;
template struct PlanOperandsT<bf16_t>;

namespace {

/// Derive every converted operand format from the retyped CSR matrix.
/// Each conversion is timed separately: both as a child span and as an
/// observation into the shared plan.convert_ms histogram.
template <class V>
PlanOperandsT<V> build_operands(CsrT<V> a, const TilingSpec& tiling) {
  auto convert = [](const char* span_name, auto&& body) {
    obs::TraceSpan s(span_name);
    obs::ScopedTimer t("plan.convert_ms");
    body();
  };
  PlanOperandsT<V> ops;
  ops.csr = std::move(a);
  convert("plan.convert.csc", [&] { ops.csc = csc_from_csr(ops.csr); });
  convert("plan.convert.dcsr", [&] { ops.dcsr = dcsr_from_csr(ops.csr); });
  convert("plan.convert.tiled_dcsr",
          [&] { ops.tiled_dcsr = tiled_dcsr_from_csr(ops.csr, tiling); });
  convert("plan.convert.tiled_csr",
          [&] { ops.tiled_csr = tiled_csr_from_csr(ops.csr, tiling); });
  convert("plan.convert.strip_nnz",
          [&] { ops.strip_nnz = strip_nnz_of(ops.csr, tiling); });
  return ops;
}

}  // namespace

SpmmPlan::SpmmPlan(const Csr& A, const PlanOptions& opts) : options_(opts) {
  opts.tiling.validate();
  NMDT_CHECK_CONFIG(
      opts.profile_sample_fraction > 0.0 && opts.profile_sample_fraction <= 1.0,
      "profile_sample_fraction must be in (0, 1]");
  obs::TraceSpan span("plan.build");
  obs::ProfScope prof(span);  // hw.* args when profiling is enabled
  obs::ScopedTimer timer("plan.build_ms");
  obs::MetricsRegistry::global().counter("plan.builds").add(1);
  {
    NMDT_TRACE_SCOPE("plan.fingerprint");
    // Canonical-input fingerprint: precision selection never changes the
    // cache identity of the matrix, only the PlanOptions half of the key.
    fingerprint_ = fingerprint_of(A);
  }
  {
    NMDT_TRACE_SCOPE("plan.profile");
    obs::ScopedTimer t("plan.profile_ms");
    // The profile is structural (row lengths, strip occupancy) — computed
    // once from the canonical matrix, valid at every precision.
    if (opts.profile_sample_fraction < 1.0) {
      profile_ = profile_matrix_sampled(A, opts.tiling, opts.profile_sample_fraction,
                                        /*seed=*/0x5a3d)
                     .profile;
    } else {
      profile_ = profile_matrix(A, opts.tiling);
    }
  }
  strategy_ = select_strategy(profile_.ssf, opts.ssf_threshold);
  kernel_ = strategy_ == Strategy::kBStationary ? KernelKind::kTiledDcsrOnline
                                                : KernelKind::kDcsrCStationary;
  // Retype once, then derive all formats at the plan's precision —
  // structural conversions commute with retyping, so every operand sees
  // the same once-rounded values (formats/retype.hpp).
  dispatch_precision(opts.precision, [&](auto tag) {
    using V = typename decltype(tag)::type;
    ops_ = build_operands<V>(retype<V>(A), opts.tiling);
    bytes_ = std::get<PlanOperandsT<V>>(ops_).bytes();
  });
  build_ms_ = timer.stop();
  span.arg("rows", static_cast<i64>(A.rows))
      .arg("cols", static_cast<i64>(A.cols))
      .arg("nnz", static_cast<i64>(A.nnz()))
      .arg("ssf", profile_.ssf)
      .arg("strategy", strategy_name(strategy_))
      .arg("kernel", kernel_name(kernel_))
      .arg("precision", precision_name(opts.precision))
      .arg("bytes", bytes_);
}

std::shared_ptr<const SpmmPlan> build_plan(const Csr& A, const PlanOptions& opts) {
  return std::make_shared<const SpmmPlan>(A, opts);
}

usize PlanCache::KeyHash::operator()(const Key& k) const {
  u64 h = k.fp.combined();
  h = fnv1a64(&k.opts.tiling.strip_width, sizeof(index_t), h);
  h = fnv1a64(&k.opts.tiling.tile_height, sizeof(index_t), h);
  h = fnv1a64(&k.opts.ssf_threshold, sizeof(double), h);
  h = fnv1a64(&k.opts.profile_sample_fraction, sizeof(double), h);
  // Precision is part of the key: a bf16 plan and an f32 plan of the
  // same matrix are distinct artifacts and must never alias.
  const i64 precision = static_cast<i64>(k.opts.precision);
  h = fnv1a64(&precision, sizeof(i64), h);
  return static_cast<usize>(h);
}

PlanCache::PlanCache(i64 byte_budget, double ttl_ms)
    : budget_(byte_budget), ttl_ms_(ttl_ms) {
  NMDT_CHECK_CONFIG(byte_budget > 0, "plan cache byte budget must be positive");
  NMDT_CHECK_CONFIG(ttl_ms >= 0.0, "plan cache TTL must be >= 0 (0 disables)");
  stats_.byte_budget = budget_;
}

std::shared_ptr<const SpmmPlan> PlanCache::get_or_build(const Csr& A,
                                                        const PlanOptions& opts,
                                                        bool* was_hit) {
  static obs::Counter& hit_counter = obs::MetricsRegistry::global().counter("plan_cache.hits");
  static obs::Counter& miss_counter =
      obs::MetricsRegistry::global().counter("plan_cache.misses");
  obs::TraceSpan span("plan_cache.lookup");
  const Key key{fingerprint_of(A), opts};
  bool recovering = false;
  std::shared_ptr<InFlight> flight;
  bool builder = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Re-verify the entry against the freshly computed fingerprint on
      // every hit — a corrupted resident plan must never be served.
      // The injection layer models the entry's bytes having been
      // damaged while resident.
      const bool injected =
          fault::should_inject(fault::FaultSite::kCacheEntry, key.fp.combined());
      const bool corrupt =
          injected || !(it->second->second.plan->fingerprint() == key.fp);
      const bool expired =
          !corrupt && ttl_ms_ > 0.0 &&
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    it->second->second.built_at)
                  .count() > ttl_ms_;
      if (!corrupt && !expired) {
        lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
        ++stats_.hits;
        hit_counter.add(1);
        if (was_hit) *was_hit = true;
        span.arg("hit", i64{1});
        return lru_.front().second.plan;
      }
      // Either way the entry is unusable: evict it and fall through to
      // the (single-flighted) rebuild path.
      stats_.bytes -= it->second->second.plan->bytes();
      lru_.erase(it->second);
      index_.erase(it);
      stats_.entries = index_.size();
      if (corrupt) {
        if (injected) fault::note_injected();
        fault::note_detected();
        recovering = true;
        ++stats_.corrupt_evictions;
        obs::MetricsRegistry::global().counter("plan_cache.corrupt_evictions").add(1);
        span.arg("corrupt_eviction", i64{1});
      } else {
        ++stats_.ttl_evictions;
        obs::MetricsRegistry::global().counter("plan_cache.ttl_evictions").add(1);
        span.arg("ttl_eviction", i64{1});
      }
    }
    if (auto fit = inflight_.find(key); fit != inflight_.end()) {
      // Another thread is already building this exact plan: join it
      // instead of building a duplicate (single-flight).
      flight = fit->second;
      ++stats_.hits;
      ++stats_.single_flight_shares;
      hit_counter.add(1);
      obs::MetricsRegistry::global().counter("plan_cache.single_flight_shares").add(1);
    } else {
      flight = std::make_shared<InFlight>();
      inflight_[key] = flight;
      builder = true;
      ++stats_.misses;
      miss_counter.add(1);
    }
  }

  if (!builder) {
    span.arg("hit", i64{1}).arg("single_flight", i64{1});
    std::unique_lock<std::mutex> wait_lock(flight->m);
    flight->cv.wait(wait_lock, [&] { return flight->done; });
    // The builder's failure is every waiter's failure: rethrow the same
    // typed error each caller would have hit building it itself.
    if (flight->error) std::rethrow_exception(flight->error);
    if (was_hit) *was_hit = true;
    return flight->plan;
  }

  span.arg("hit", i64{0});
  // Build outside the lock: planning is the expensive part, and the
  // in-flight registration above guarantees no duplicate work.
  std::shared_ptr<const SpmmPlan> plan;
  try {
    plan = build_plan(A, opts);
  } catch (...) {
    {
      std::lock_guard<std::mutex> fl(flight->m);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    throw;
  }
  if (recovering) fault::note_recovered();
  if (was_hit) *was_hit = false;
  {
    std::lock_guard<std::mutex> fl(flight->m);
    flight->plan = plan;
    flight->done = true;
  }
  flight->cv.notify_all();

  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(key);
  if (plan->bytes() > budget_) {
    ++stats_.oversize;  // usable, but never resident
    obs::MetricsRegistry::global().counter("plan_cache.oversize").add(1);
    return plan;
  }
  lru_.emplace_front(key, Entry{plan, Clock::now()});
  index_[key] = lru_.begin();
  stats_.bytes += plan->bytes();
  stats_.entries = index_.size();
  evict_to_budget_locked();
  obs::MetricsRegistry::global().gauge("plan_cache.resident_bytes").set(
      static_cast<double>(stats_.bytes));
  return plan;
}

void PlanCache::evict_to_budget_locked() {
  static obs::Counter& evict_counter =
      obs::MetricsRegistry::global().counter("plan_cache.evictions");
  while (stats_.bytes > budget_ && !lru_.empty()) {
    const auto& victim = lru_.back();
    stats_.bytes -= victim.second.plan->bytes();
    index_.erase(victim.first);
    lru_.pop_back();
    ++stats_.evictions;
    evict_counter.add(1);
  }
  stats_.entries = index_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
}

}  // namespace nmdt
