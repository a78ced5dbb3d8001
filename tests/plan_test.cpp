// Plan → Cache → Execute tests: matrix fingerprinting, PlanCache
// hit/miss/eviction accounting, lazily built plan artifacts (LazyPlan),
// and the SpmmEngine regression that a second run() against the same A
// is served entirely from the cache (zero conversion work) yet reports
// bit-identical results.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/spmm_engine.hpp"
#include "formats/retype.hpp"
#include "matgen/generators.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

/// How many spans named `name` `session` recorded.
int span_count(const obs::TraceSession& session, const std::string& name) {
  int n = 0;
  for (const auto& ev : session.events()) n += ev.name == name ? 1 : 0;
  return n;
}

/// Two matrices with identical dims, nnz, and values but different
/// sparsity patterns — the case a naive (dims, nnz) cache key would
/// alias.
std::pair<Csr, Csr> same_shape_different_pattern() {
  Csr a;
  a.rows = 2;
  a.cols = 4;
  a.row_ptr = {0, 2, 4};
  a.col_idx = {0, 1, 2, 3};
  a.val = {1.0f, 2.0f, 3.0f, 4.0f};
  Csr b = a;
  b.col_idx = {0, 2, 1, 3};
  return {a, b};
}

TEST(Fingerprint, EqualForIdenticalMatrices) {
  const Csr A = gen_uniform(100, 80, 0.05, 7);
  const Csr B = A;
  EXPECT_EQ(fingerprint_of(A), fingerprint_of(B));
  EXPECT_EQ(fingerprint_of(A).combined(), fingerprint_of(B).combined());
}

TEST(Fingerprint, DistinguishesPatternAtEqualDimsAndNnz) {
  const auto [a, b] = same_shape_different_pattern();
  const MatrixFingerprint fa = fingerprint_of(a);
  const MatrixFingerprint fb = fingerprint_of(b);
  ASSERT_EQ(fa.rows, fb.rows);
  ASSERT_EQ(fa.cols, fb.cols);
  ASSERT_EQ(fa.nnz, fb.nnz);
  EXPECT_NE(fa.structure_hash, fb.structure_hash);
  EXPECT_FALSE(fa == fb);
}

TEST(Fingerprint, DistinguishesValuesAtEqualStructure) {
  const Csr a = gen_uniform(64, 64, 0.1, 3);
  Csr b = a;
  b.val[0] += 1.0f;
  const MatrixFingerprint fa = fingerprint_of(a);
  const MatrixFingerprint fb = fingerprint_of(b);
  EXPECT_EQ(fa.structure_hash, fb.structure_hash);
  EXPECT_NE(fa.value_hash, fb.value_hash);
}

TEST(PlanCache, CountsHitsAndMisses) {
  PlanCache cache;
  const Csr A = gen_uniform(100, 100, 0.05, 1);
  const Csr B = gen_uniform(100, 100, 0.05, 2);
  const PlanOptions opts;

  bool hit = true;
  const auto p1 = cache.get_or_build(A, opts, &hit);
  EXPECT_FALSE(hit);
  const auto p2 = cache.get_or_build(A, opts, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());  // same resident plan, not a rebuild
  cache.get_or_build(B, opts, &hit);
  EXPECT_FALSE(hit);

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GT(s.bytes, 0);
}

TEST(PlanCache, DifferentOptionsAreDifferentEntries) {
  PlanCache cache;
  const Csr A = gen_uniform(100, 100, 0.05, 1);
  PlanOptions a;
  PlanOptions b;
  b.tiling = TilingSpec{32, 32};
  cache.get_or_build(A, a);
  bool hit = true;
  cache.get_or_build(A, b, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PlanCache, SameShapeDifferentPatternAreDifferentEntries) {
  PlanCache cache;
  const auto [a, b] = same_shape_different_pattern();
  const PlanOptions opts;
  const auto pa = cache.get_or_build(a, opts);
  bool hit = true;
  const auto pb = cache.get_or_build(b, opts, &hit);
  EXPECT_FALSE(hit);  // must NOT alias despite equal dims/nnz/values
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(pa->csr_at<value_t>().col_idx, pb->csr_at<value_t>().col_idx);
}

TEST(PlanCache, LruEvictsOldestUnderByteBudget) {
  // Size the budget from a real plan so the test tracks format changes:
  // room for two same-shape plans but not three.
  const Csr A = gen_uniform(200, 200, 0.05, 1);
  const Csr B = gen_uniform(200, 200, 0.05, 2);
  const Csr C = gen_uniform(200, 200, 0.05, 3);
  const PlanOptions opts;
  const i64 one = build_plan(A, opts)->bytes();
  PlanCache cache(one * 5 / 2);

  cache.get_or_build(A, opts);
  cache.get_or_build(B, opts);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.get_or_build(A, opts);  // bump A to most-recently-used
  cache.get_or_build(C, opts);  // over budget -> evict LRU = B

  PlanCacheStats s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.bytes, s.byte_budget);

  bool hit = false;
  cache.get_or_build(A, opts, &hit);
  EXPECT_TRUE(hit);  // A was bumped, so it survived
  cache.get_or_build(B, opts, &hit);
  EXPECT_FALSE(hit);  // B was the LRU victim
}

TEST(PlanCache, OversizePlansAreBuiltButNotStored) {
  PlanCache cache(16);  // smaller than any real plan
  const Csr A = gen_uniform(64, 64, 0.1, 1);
  bool hit = true;
  const auto p = cache.get_or_build(A, {}, &hit);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(hit);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(s.oversize, 1u);
}

TEST(PlanCache, ConcurrentHammerRacingCancellationConservesStats) {
  // Several threads hammer get_or_build over a working set that
  // overflows a tight byte budget (every lookup can race an eviction)
  // while another thread flips a CancelToken mid-run.  Cancellation is
  // observed only *between* lookups — the cache itself must never be
  // torn by it — and the accounting must balance exactly:
  // hits + misses == lookups that completed.
  const int kThreads = 4;
  const PlanOptions opts;
  std::vector<Csr> matrices;
  for (u64 s = 1; s <= 6; ++s) matrices.push_back(gen_uniform(200, 200, 0.05, s));
  const i64 one = build_plan(matrices[0], opts)->bytes();
  PlanCache cache(one * 5 / 2);  // room for ~2 of 6: constant churn

  CancelToken token;
  std::atomic<u64> lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x9a9a + static_cast<u64>(t));
      while (!token.cancelled()) {
        const Csr& A = matrices[rng.below(matrices.size())];
        cache.get_or_build(A, opts);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the hammer run long enough to guarantee evictions, then cancel.
  while (lookups.load(std::memory_order_relaxed) < 400) std::this_thread::yield();
  token.request(CancelReason::kUser);
  for (auto& th : threads) th.join();

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, lookups.load());
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  EXPECT_LE(s.bytes, s.byte_budget);
}

TEST(PlanCache, SingleFlightBuildsOnceUnderConcurrentRequests) {
  // N threads released simultaneously against one cold key: exactly one
  // builds, the rest rendezvous on the in-flight build and share its
  // plan.  The stats conservation holds with the shares counted as
  // hits: hits + misses == lookups, misses == builds.
  constexpr int kThreads = 8;
  const Csr A = gen_uniform(200, 200, 0.05, 21);
  const PlanOptions opts;
  PlanCache cache;

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const SpmmPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      plans[static_cast<usize>(t)] = cache.get_or_build(A, opts);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  // Everyone got the same plan instance — nobody built a duplicate.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(plans[0].get(), plans[static_cast<usize>(t)].get());
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<u64>(kThreads - 1));
  EXPECT_EQ(s.hits + s.misses, static_cast<u64>(kThreads));
  // Latecomers that arrived while the build was in flight are counted
  // as shares; ones that arrived after it landed are plain hits.  Both
  // are hits, so conservation holds either way.
  EXPECT_LE(s.single_flight_shares, s.hits);
  EXPECT_EQ(s.entries, 1u);
}

TEST(PlanCache, SingleFlightSharesABuildFailure) {
  // Latecomers joined to a failing build must observe the builder's
  // typed exception, and the key must stay buildable afterwards.
  const Csr A = gen_uniform(64, 64, 0.1, 5);
  PlanOptions opts;
  opts.profile_sample_fraction = -1.0;  // the build throws ConfigError
  PlanCache cache;
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        cache.get_or_build(A, opts);
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), kThreads);  // every caller saw a typed error
  EXPECT_EQ(cache.stats().entries, 0u);  // nothing poisoned the cache
}

TEST(PlanCache, TtlExpiresEntriesAndRebuilds) {
  const Csr A = gen_uniform(100, 100, 0.05, 9);
  const PlanOptions opts;
  PlanCache cache(PlanCache::kDefaultByteBudget, /*ttl_ms=*/5.0);
  const auto first = cache.get_or_build(A, opts);
  const auto quick = cache.get_or_build(A, opts);  // fresh: a plain hit
  EXPECT_EQ(first.get(), quick.get());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  bool was_hit = true;
  const auto rebuilt = cache.get_or_build(A, opts, &was_hit);
  EXPECT_FALSE(was_hit);
  EXPECT_NE(first.get(), rebuilt.get());  // the stale plan was evicted
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.ttl_evictions, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(PlanCache, ZeroTtlNeverExpires) {
  const Csr A = gen_uniform(64, 64, 0.1, 3);
  PlanCache cache;  // ttl_ms = 0: entries live forever
  const auto p1 = cache.get_or_build(A, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto p2 = cache.get_or_build(A, {});
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().ttl_evictions, 0u);
}

TEST(PlanCache, RejectsNegativeTtl) {
  EXPECT_THROW(PlanCache(PlanCache::kDefaultByteBudget, -1.0), ConfigError);
}

TEST(PlanCache, SingleFlightHammerConservesStatsUnderChurn) {
  // The service-tier composition: many threads, several keys, a tight
  // budget (evictions), and single-flight rendezvous all racing, while
  // every thread executes a random kernel on the plan it got — so
  // resident plans grow as their artifacts are built.  The conservation
  // invariant must hold exactly, builds must equal misses, and the
  // charged bytes must catch up with the plans' growth on the next
  // lookup.
  constexpr int kThreads = 6;
  const PlanOptions opts;
  const SpmmExecutor exec{SpmmConfig{}};
  std::vector<Csr> matrices;
  for (u64 s = 1; s <= 4; ++s) matrices.push_back(gen_uniform(160, 160, 0.05, s));
  DenseMatrix B(160, 4);
  Rng b_rng(3);
  B.randomize(b_rng);
  const auto full = build_plan(matrices[0], opts);
  for (KernelKind kind : kAllKernels) (void)full->operands_for<value_t>(kind);
  PlanCache cache(full->bytes() * 2);  // room for ~2 fully built plans of 4

  std::atomic<u64> lookups{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x51f7 + static_cast<u64>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto plan = cache.get_or_build(matrices[rng.below(matrices.size())], opts);
        lookups.fetch_add(1, std::memory_order_relaxed);
        (void)exec.execute(kAllKernels[rng.below(std::size(kAllKernels))], *plan, B);
      }
    });
  }
  while (lookups.load(std::memory_order_relaxed) < 300) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  cache.get_or_build(matrices[0], opts);
  const u64 total_lookups = lookups.load() + 1;

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, total_lookups);
  EXPECT_GT(s.evictions, 0u);
  i64 resident_bytes = 0;
  const auto resident = cache.resident();
  for (const auto& plan : resident) resident_bytes += plan->bytes();
  EXPECT_EQ(s.entries, resident.size());
  EXPECT_EQ(s.bytes, resident_bytes);
  EXPECT_LE(s.bytes, s.byte_budget);
}

TEST(LazyPlan, DcsrCStationaryPlanNeverBuildsTiledFormats) {
  // A uniform matrix the SSF heuristic sends to dcsr_c_stationary: two
  // executes through the cache convert DCSR once and nothing else.
  const Csr A = gen_uniform(256, 256, 0.03, 4);
  const SpmmConfig cfg = evaluation_config(A.rows, 8);
  DenseMatrix B(A.cols, 8);
  Rng rng(8);
  B.randomize(rng);
  PlanCache cache;

  obs::TraceSession session;
  session.install();
  for (int call = 0; call < 2; ++call) {
    const auto plan = cache.get_or_build(A, plan_options_for(cfg));
    ASSERT_EQ(plan->kernel(), KernelKind::kDcsrCStationary);
    (void)SpmmExecutor(cfg).execute(*plan, B);
  }
  session.uninstall();

  EXPECT_EQ(span_count(session, "plan.build"), 1);
  EXPECT_EQ(span_count(session, "plan.convert.dcsr"), 1);
  for (const char* unread :
       {"plan.convert.tiled_dcsr", "plan.convert.tiled_csr", "plan.convert.csc"}) {
    EXPECT_EQ(span_count(session, unread), 0) << unread;
  }
}

template <class V>
void expect_operands_match_table(const Csr& A) {
  SCOPED_TRACE(precision_name(VTraits<V>::kPrecision));
  SpmmConfig cfg;
  cfg.precision = VTraits<V>::kPrecision;
  const auto plan = build_plan(A, plan_options_for(cfg));
  const i64 eager_bytes = plan->bytes();
  EXPECT_GT(eager_bytes, 0);
  DenseMatrix B(A.cols, 4);
  Rng rng(4);
  B.randomize(rng);
  const DenseMatrixT<V> b = retype<V>(B);
  for (KernelKind kind : kAllKernels) {
    SCOPED_TRACE(kernel_name(kind));
    const ArtifactSet need = artifacts_of(kind);
    const SpmmOperandsT<V> ops = plan->operands_for<V>(kind);
    EXPECT_EQ(ops.csr, &plan->template csr_at<V>());
    EXPECT_EQ(ops.csc != nullptr, need.csc);
    EXPECT_EQ(ops.dcsr != nullptr, need.dcsr);
    EXPECT_EQ(ops.tiled_dcsr != nullptr, need.tiled_dcsr);
    EXPECT_EQ(ops.tiled_csr != nullptr, need.tiled_csr);
    if (ops.dcsr) {
      EXPECT_EQ(ops.dcsr->nnz(), A.nnz());
    }
    if (ops.tiled_dcsr) {
      EXPECT_EQ(coo_from_tiled(*ops.tiled_dcsr).nnz(), A.nnz());
    }
    EXPECT_NO_THROW(run_spmm<V>(kind, ops, b, cfg));
  }
  EXPECT_GT(plan->bytes(), eager_bytes);  // the artifacts are charged
}

TEST(LazyPlan, OperandsForBuildsExactlyTheKernelsArtifacts) {
  const Csr A = gen_powerlaw_rows(300, 200, 0.02, 1.2, 5);
  expect_operands_match_table<float>(A);
  expect_operands_match_table<double>(A);
  expect_operands_match_table<bf16_t>(A);
}

TEST(LazyPlan, ConcurrentFirstUsesShareOneConversion) {
  // N threads released together against the unbuilt tiled DCSR of a
  // fresh plan: one conversion runs, everyone gets its artifact.
  constexpr int kThreads = 8;
  const Csr A = gen_powerlaw_rows(512, 512, 0.02, 1.2, 9);
  const auto plan = build_plan(A);

  obs::TraceSession session;
  session.install();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<SpmmOperandsT<value_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      got[static_cast<usize>(t)] =
          plan->operands_for<value_t>(KernelKind::kTiledDcsrBStationary);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  session.uninstall();

  EXPECT_EQ(span_count(session, "plan.convert.tiled_dcsr"), 1);
  for (const auto& ops : got) EXPECT_EQ(ops.tiled_dcsr, got[0].tiled_dcsr);
}

TEST(LazyPlan, FailedBuildLeavesTheArtifactUnbuilt) {
  LazyArtifact<int> slot;
  int builds = 0;
  EXPECT_THROW(slot.get([&]() -> int {
    ++builds;
    throw FormatError("conversion failed");
  }),
               FormatError);
  EXPECT_EQ(slot.get([&] { return ++builds; }), 2);  // the next use retries
  EXPECT_EQ(slot.get([&] { return ++builds; }), 2);  // and then never again
  EXPECT_EQ(builds, 2);
}

TEST(Executor, RejectsPlanBuiltUnderDifferentTiling) {
  const Csr A = gen_uniform(64, 64, 0.1, 1);
  SpmmConfig cfg = evaluation_config(64, 8);
  PlanOptions opts = plan_options_for(cfg);
  opts.tiling = TilingSpec{32, 32};
  const auto plan = build_plan(A, opts);
  DenseMatrix B(A.cols, 8);
  Rng rng(1);
  B.randomize(rng);
  EXPECT_THROW(SpmmExecutor(cfg).execute(*plan, B), ConfigError);
}

TEST(SpmmEngine, RunKernelPlansThroughTheEngineCache) {
  const Csr A = gen_uniform(96, 96, 0.05, 13);
  DenseMatrix B(A.cols, 8);
  Rng rng(2);
  B.randomize(rng);
  const SpmmEngine engine;
  const SpmmResult first = engine.run_kernel(KernelKind::kAStationary, A, B);
  const SpmmResult second = engine.run_kernel(KernelKind::kAStationary, A, B);
  const PlanCacheStats s = engine.cache_stats();
  EXPECT_EQ(s.misses, 1u);  // the first call planned A ...
  EXPECT_EQ(s.hits, 1u);    // ... the second reused that plan
  EXPECT_EQ(first.C.max_abs_diff(second.C), 0.0);
}

TEST(SpmmEngine, SecondRunOnSameMatrixIsACacheHitWithIdenticalReport) {
  const Csr A = gen_powerlaw_rows(256, 256, 0.03, 1.2, 11);
  const index_t K = 16;
  Rng rng(6);
  DenseMatrix B(A.cols, K);
  B.randomize(rng);
  EngineOptions options;
  options.spmm = evaluation_config(A.rows, K);
  const SpmmEngine engine(options);

  const SpmmReport first = engine.run(A, B);
  const SpmmReport second = engine.run(A, B);

  // Regression: the cache must not change what the engine computes.
  EXPECT_EQ(first.profile.ssf, second.profile.ssf);
  EXPECT_EQ(first.chosen, second.chosen);
  EXPECT_EQ(first.kernel, second.kernel);
  EXPECT_EQ(first.result.C.max_abs_diff(second.result.C), 0.0);
  EXPECT_EQ(first.result.timing.total_ns, second.result.timing.total_ns);
  EXPECT_EQ(first.speedup_vs_baseline, second.speedup_vs_baseline);
  EXPECT_EQ(first.max_abs_error, second.max_abs_error);

  // The second call performed zero profiling/conversion work.
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(second.plan_build_ms, 0.0);
  const PlanCacheStats s = engine.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SpmmEngine, CachingCanBeDisabled) {
  const Csr A = gen_uniform(100, 100, 0.05, 1);
  DenseMatrix B(A.cols, 8);
  Rng rng(2);
  B.randomize(rng);
  EngineOptions options;
  options.spmm = evaluation_config(100, 8);
  options.plan_cache_bytes = 0;
  const SpmmEngine engine(options);
  const SpmmReport r1 = engine.run(A, B);
  const SpmmReport r2 = engine.run(A, B);
  EXPECT_FALSE(r1.plan_cache_hit);
  EXPECT_FALSE(r2.plan_cache_hit);  // every run plans from scratch
  EXPECT_EQ(r1.result.C.max_abs_diff(r2.result.C), 0.0);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(SpmmEngine, PlanForExposesTheCachedPlan) {
  const Csr A = gen_uniform(128, 128, 0.05, 3);
  const SpmmEngine engine;
  bool hit = true;
  const auto p1 = engine.plan_for(A, &hit);
  EXPECT_FALSE(hit);
  DenseMatrix B(A.cols, 8);
  Rng rng(2);
  B.randomize(rng);
  engine.run(A, B);  // must reuse p1, not rebuild
  const auto p2 = engine.plan_for(A, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(engine.cache_stats().misses, 1u);
}

}  // namespace
}  // namespace nmdt
