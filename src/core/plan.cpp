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

namespace {

template <class F>
i64 artifact_bytes(const F& format) {
  return footprint(format).total();
}

/// `slot`'s artifact, converted by `convert` under `span_name` on first
/// use and charged to `bytes`.
template <class T, class Convert>
const T& artifact(const LazyArtifact<T>& slot, const char* span_name, std::atomic<i64>& bytes,
                  Convert&& convert) {
  return slot.get([&] {
    obs::TraceSpan s(span_name);
    obs::ScopedTimer t(obs::metrics().plan_convert_ms);
    T built = convert();
    bytes.fetch_add(artifact_bytes(built), std::memory_order_relaxed);
    return built;
  });
}

}  // namespace

SpmmPlan::SpmmPlan(const Csr& A, const PlanOptions& opts, const MatrixFingerprint* fp)
    : options_(opts) {
  opts.tiling.validate();
  NMDT_CHECK_CONFIG(
      opts.profile_sample_fraction > 0.0 && opts.profile_sample_fraction <= 1.0,
      "profile_sample_fraction must be in (0, 1]");
  obs::TraceSpan span("plan.build");
  obs::ProfScope prof(span);  // hw.* args when profiling is enabled
  obs::ScopedTimer timer(obs::metrics().plan_build_ms);
  obs::metrics().plan_builds.add(1);
  if (fp != nullptr) {
    fingerprint_ = *fp;
  } else {
    NMDT_TRACE_SCOPE("plan.fingerprint");
    // Canonical-input fingerprint: precision selection never changes the
    // cache identity of the matrix, only the PlanOptions half of the key.
    fingerprint_ = fingerprint_of(A);
  }
  {
    NMDT_TRACE_SCOPE("plan.profile");
    obs::ScopedTimer t(obs::metrics().plan_profile_ms);
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
  // Retype once; every artifact derives from this CSR at the plan's
  // precision — structural conversions commute with retyping, so every
  // operand sees the same once-rounded values (formats/retype.hpp).
  dispatch_precision(opts.precision, [&](auto tag) {
    using V = typename decltype(tag)::type;
    auto& ops = ops_.emplace<Operands<V>>();
    ops.csr = retype<V>(A);
    bytes_ = artifact_bytes(ops.csr);
  });
  build_ms_ = timer.stop();
  span.arg("rows", static_cast<i64>(A.rows))
      .arg("cols", static_cast<i64>(A.cols))
      .arg("nnz", static_cast<i64>(A.nnz()))
      .arg("ssf", profile_.ssf)
      .arg("strategy", strategy_name(strategy_))
      .arg("kernel", kernel_name(kernel_))
      .arg("precision", precision_name(opts.precision))
      .arg("bytes", bytes());
}

template <class V>
SpmmOperandsT<V> SpmmPlan::operands_for(KernelKind kind) const {
  const Operands<V>& ops = operands<V>();
  const CsrT<V>& a = ops.csr;
  const TilingSpec& t = options_.tiling;
  const ArtifactSet need = artifacts_of(kind);
  SpmmOperandsT<V> out;
  out.csr = &a;
  std::atomic<i64>& b = bytes_;
  if (need.csc) {
    out.csc = &artifact(ops.csc, "plan.convert.csc", b, [&] { return csc_from_csr(a); });
  }
  if (need.dcsr) {
    out.dcsr = &artifact(ops.dcsr, "plan.convert.dcsr", b, [&] { return dcsr_from_csr(a); });
  }
  if (need.tiled_dcsr) {
    out.tiled_dcsr = &artifact(ops.tiled_dcsr, "plan.convert.tiled_dcsr", b,
                               [&] { return tiled_dcsr_from_csr(a, t); });
  }
  if (need.tiled_csr) {
    out.tiled_csr = &artifact(ops.tiled_csr, "plan.convert.tiled_csr", b,
                              [&] { return tiled_csr_from_csr(a, t); });
  }
  return out;
}

template SpmmOperandsT<float> SpmmPlan::operands_for<float>(KernelKind) const;
template SpmmOperandsT<double> SpmmPlan::operands_for<double>(KernelKind) const;
template SpmmOperandsT<bf16_t> SpmmPlan::operands_for<bf16_t>(KernelKind) const;

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
  obs::TraceSpan span("plan_cache.lookup");
  Key key{{}, opts};
  {
    // The one hash of A per lookup: it keys the cache, re-verifies a
    // resident entry, and seeds the plan a miss builds.
    NMDT_TRACE_SCOPE("plan.fingerprint");
    key.fp = fingerprint_of(A);
  }
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
        std::shared_ptr<const SpmmPlan> plan = lru_.front().second.plan;
        charge_and_evict_locked();
        ++stats_.hits;
        obs::metrics().plan_cache_hits.add(1);
        if (was_hit) *was_hit = true;
        span.arg("hit", i64{1});
        return plan;
      }
      // Either way the entry is unusable: evict it and fall through to
      // the (single-flighted) rebuild path.
      stats_.bytes -= it->second->second.charged;
      lru_.erase(it->second);
      index_.erase(it);
      stats_.entries = index_.size();
      if (corrupt) {
        if (injected) fault::note_injected();
        fault::note_detected();
        recovering = true;
        ++stats_.corrupt_evictions;
        obs::metrics().plan_cache_corrupt_evictions.add(1);
        span.arg("corrupt_eviction", i64{1});
      } else {
        ++stats_.ttl_evictions;
        obs::metrics().plan_cache_ttl_evictions.add(1);
        span.arg("ttl_eviction", i64{1});
      }
    }
    charge_and_evict_locked();
    if (auto fit = inflight_.find(key); fit != inflight_.end()) {
      // Another thread is already building this exact plan: join it
      // instead of building a duplicate (single-flight).
      flight = fit->second;
      ++stats_.hits;
      ++stats_.single_flight_shares;
      obs::metrics().plan_cache_hits.add(1);
      obs::metrics().plan_cache_single_flight_shares.add(1);
    } else {
      flight = std::make_shared<InFlight>();
      inflight_[key] = flight;
      builder = true;
      ++stats_.misses;
      obs::metrics().plan_cache_misses.add(1);
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
    plan = std::make_shared<const SpmmPlan>(A, opts, &key.fp);
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
  const i64 bytes = plan->bytes();
  if (bytes > budget_) {
    ++stats_.oversize;  // usable, but never resident
    obs::metrics().plan_cache_oversize.add(1);
  } else {
    lru_.emplace_front(key, Entry{plan, Clock::now(), bytes});
    index_[key] = lru_.begin();
    stats_.bytes += bytes;
  }
  charge_and_evict_locked();
  return plan;
}

void PlanCache::charge_and_evict_locked() {
  for (auto& [key, entry] : lru_) {
    const i64 now = entry.plan->bytes();
    stats_.bytes += now - entry.charged;
    entry.charged = now;
  }
  while (stats_.bytes > budget_ && !lru_.empty()) {
    const auto& victim = lru_.back();
    stats_.bytes -= victim.second.charged;
    index_.erase(victim.first);
    lru_.pop_back();
    ++stats_.evictions;
    obs::metrics().plan_cache_evictions.add(1);
  }
  stats_.entries = index_.size();
  obs::metrics().plan_cache_resident_bytes.set(static_cast<double>(stats_.bytes));
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::shared_ptr<const SpmmPlan>> PlanCache::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const SpmmPlan>> out;
  for (const auto& [key, entry] : lru_) out.push_back(entry.plan);
  return out;
}

}  // namespace nmdt
