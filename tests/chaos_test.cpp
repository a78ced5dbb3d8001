// Chaos suite: pins the fault-injection contract end to end
// (DESIGN.md "Fault model & recovery").
//
//  * Sweep: every injection site × rates {0.01, 0.1} × 3 seeds ×
//    jobs {1, 4}.  Each run either recovers — outputs, simulated
//    counters, memory stats, and engine stats bit-identical to the
//    fault-free run — or surfaces a typed error / recorded fallback.
//    Never silent corruption.
//  * Determinism: the same (site, rate, seed) fires the same faults at
//    any job count — fault counters match between jobs=1 and jobs=4.
//  * Rate 0 with the layer enabled is a bitwise no-op: results, trace
//    span tree, and fault counters identical to injection disabled.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "fault/fault.hpp"
#include "formats/convert.hpp"
#include "formats/serialize.hpp"
#include "transform/arena.hpp"
#include "transform/engine.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

struct FaultCounters {
  i64 injected = 0;
  i64 detected = 0;
  i64 recovered = 0;
  i64 unrecovered = 0;
  i64 fallbacks = 0;

  bool operator==(const FaultCounters&) const = default;
};

FaultCounters read_fault_counters() {
  auto& m = obs::MetricsRegistry::global();
  return {m.counter("fault.injected").value(), m.counter("fault.detected").value(),
          m.counter("fault.recovered").value(), m.counter("fault.unrecovered").value(),
          m.counter("fault.fallbacks").value()};
}

void reset_metrics() { obs::MetricsRegistry::global().reset(); }

/// Every injection is paired with a detection, and any detection
/// sequence must end in a recovery or a typed failure — the "never
/// silent" invariant in counter form.
void expect_accounted(const FaultCounters& c) {
  EXPECT_EQ(c.detected, c.injected);
  if (c.injected > 0) {
    EXPECT_GT(c.recovered + c.unrecovered, 0) << "injected faults vanished silently";
  } else {
    EXPECT_EQ(c.recovered, 0);
    EXPECT_EQ(c.unrecovered, 0);
  }
}

/// 256×4096 power-law matrix: 64 strips → 4 kernel shards and 256
/// engine tiles, so both the tile and shard-exec sites see enough
/// events to fire at the sweep's low rates, while staying fast under
/// sanitizers.
Csr chaos_matrix() { return gen_powerlaw_rows(256, 4096, 0.005, 1.2, 7); }

DenseMatrix chaos_b(index_t rows, u64 seed) {
  Rng rng(seed);
  DenseMatrix B(rows, 16);
  B.randomize(rng);
  return B;
}

void expect_identical(const SpmmResult& a, const SpmmResult& b) {
  const auto x = result_bits(a);
  const auto y = result_bits(b);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mem, b.mem);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.engine_busy_ns, b.engine_busy_ns);
  EXPECT_EQ(a.timing.total_ns, b.timing.total_ns);
}

constexpr double kRates[] = {0.01, 0.1};
constexpr u64 kSeeds[] = {1, 2, 3};
constexpr int kJobs[] = {1, 4};

// ---------------------------------------------------------------------
// Sites with an in-pipeline recovery path, swept through the online
// kernel (the paper's faultable near-memory unit plus the host shards).

TEST(Chaos, PipelineSiteSweepRecoversBitIdenticalAtEveryJobCount) {
  const Csr A = chaos_matrix();
  const DenseMatrix B = chaos_b(A.cols, 5);
  const DenseMatrix ref = spmm_reference(A, B);

  std::map<int, SpmmResult> baseline;  // jobs -> fault-free run
  for (int jobs : kJobs) {
    SpmmConfig cfg;
    cfg.jobs = jobs;
    baseline.emplace(jobs, run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg));
  }
  expect_identical(baseline.at(1), baseline.at(4));

  using fault::FaultSite;
  for (FaultSite site : {FaultSite::kTileRowId, FaultSite::kTileColIdx,
                         FaultSite::kTileVal, FaultSite::kShardExec}) {
    i64 site_injections = 0;
    for (double rate : kRates) {
      for (u64 seed : kSeeds) {
        std::map<int, FaultCounters> by_jobs;
        for (int jobs : kJobs) {
          SCOPED_TRACE(std::string(fault::site_name(site)) + " rate " +
                       std::to_string(rate) + " seed " + std::to_string(seed) +
                       " jobs " + std::to_string(jobs));
          reset_metrics();
          SpmmConfig cfg;
          cfg.jobs = jobs;
          cfg.fault = {site, rate, seed};
          bool threw = false;
          try {
            const SpmmResult r = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
            if (r.used_fallback) {
              // Different kernel, different FP accumulation order: the
              // degraded answer is correct, not bit-identical.
              EXPECT_LT(r.C.max_abs_diff(ref), 1e-3);
            } else {
              expect_identical(r, baseline.at(jobs));
            }
          } catch (const FaultError&) {
            threw = true;  // persistent transient inside the fallback path
          }
          const FaultCounters c = read_fault_counters();
          expect_accounted(c);
          if (threw) {
            EXPECT_GT(c.unrecovered, 0);
          }
          EXPECT_EQ(c.fallbacks > 0 || threw, c.unrecovered > 0);
          by_jobs[jobs] = c;
        }
        // Keys derive from work coordinates, never threads: the fault
        // sequence is a function of (site, rate, seed) alone.
        EXPECT_EQ(by_jobs.at(1), by_jobs.at(4))
            << fault::site_name(site) << " fired differently at jobs 1 vs 4";
        site_injections += by_jobs.at(1).injected;
      }
    }
    EXPECT_GT(site_injections, 0)
        << fault::site_name(site) << " never fired: the sweep is vacuous";
  }
}

TEST(Chaos, PersistentTileFaultDegradesToVerifiedFallback) {
  const Csr A = chaos_matrix();
  const DenseMatrix B = chaos_b(A.cols, 6);
  reset_metrics();
  SpmmConfig cfg;
  cfg.fault = {fault::FaultSite::kTileVal, 1.0, 9};
  const SpmmResult r = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_LT(r.C.max_abs_diff(spmm_reference(A, B)), 1e-3);
  const FaultCounters c = read_fault_counters();
  expect_accounted(c);
  // Every shard drains (no early abort), so each hits one exhausted
  // tile before the lowest-index FaultError triggers the single
  // kernel-level fallback.
  EXPECT_GE(c.unrecovered, 1);
  EXPECT_EQ(c.fallbacks, 1);

  cfg.fault_fallback = false;
  EXPECT_THROW(run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg), FaultError);
}

// Arena-backed reconversion: bit-flip recovery in convert_tile_checked
// now takes all its tile scratch from the thread-local ConversionArena
// (one RAII scope per attempt).  The recovered tiles must stay bitwise
// equal to fault-free conversion, the engine counters must stay pinned
// to the first attempt, and — the arena contract — the retries must be
// served from reused chunks, not fresh heap allocations.
TEST(Chaos, ArenaReconversionReusesScratchAndStaysBitIdentical) {
  const Csr A = chaos_matrix();
  const Csc csc = csc_from_csr(A);
  const TilingSpec spec{64, 64};
  const index_t strips = spec.num_strips(A.cols);

  // Fault-free reference tiles, strip by strip.
  ConversionEngine ref_engine;
  std::vector<std::vector<DcsrTile>> ref_tiles;
  for (index_t s = 0; s < strips; ++s) {
    ref_tiles.push_back(ref_engine.convert_strip<value_t>(csc, s, spec));
  }

  // Same conversion under tile-value bit flips, through the reused-tile
  // entry point the online kernel uses.  The rate is low enough that
  // the deterministic draw never exhausts the retry budget, high enough
  // that retries actually happen (asserted below).
  reset_metrics();
  const fault::FaultScope inject({fault::FaultSite::kTileVal, 0.1, 3});
  ConversionEngine engine;
  ConversionArena& arena = ConversionArena::local();
  const auto convert_strip_reused = [&](index_t s) {
    ConversionArena::local().reset();
    StripCursor cursor(csc, s, spec);
    DcsrTile tile;
    std::vector<DcsrTile> out;
    for (index_t row_start = 0; row_start < csc.rows; row_start += spec.tile_height) {
      engine.convert_tile_checked_into(tile, csc, cursor, row_start, spec);
      out.push_back(tile);
    }
    return out;
  };

  // Warm the arena on the first strip, then require steady state: no
  // strip after it may grow the arena, retries included.
  u64 rewinds_before = arena.stats().rewinds;
  std::vector<std::vector<DcsrTile>> got;
  got.push_back(convert_strip_reused(0));
  const u64 warm_chunks = arena.stats().chunk_allocs;
  const u64 warm_capacity = arena.stats().capacity_bytes;
  for (index_t s = 1; s < strips; ++s) got.push_back(convert_strip_reused(s));
  EXPECT_EQ(arena.stats().chunk_allocs, warm_chunks);
  EXPECT_EQ(arena.stats().capacity_bytes, warm_capacity);

  // One scope close per conversion attempt: with recovered faults in
  // the run, rewinds must exceed the tile count.
  i64 tiles_total = 0;
  for (const auto& strip : got) tiles_total += static_cast<i64>(strip.size());
  EXPECT_GT(static_cast<i64>(arena.stats().rewinds - rewinds_before), tiles_total);

  const FaultCounters c = read_fault_counters();
  expect_accounted(c);
  EXPECT_GT(c.injected, 0) << "no bit flips fired: the test is vacuous";
  EXPECT_GT(c.recovered, 0);
  EXPECT_EQ(c.unrecovered, 0);

  // Recovered output: bitwise equal tiles, engine stats pinned to the
  // fault-free accounting.
  ASSERT_EQ(got.size(), ref_tiles.size());
  for (usize s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].size(), ref_tiles[s].size());
    for (usize t = 0; t < got[s].size(); ++t) {
      SCOPED_TRACE("strip " + std::to_string(s) + " tile " + std::to_string(t));
      const DcsrTile& x = got[s][t];
      const DcsrTile& y = ref_tiles[s][t];
      EXPECT_EQ(x.crc, y.crc);
      EXPECT_EQ(x.body.row_idx, y.body.row_idx);
      EXPECT_EQ(x.body.row_ptr, y.body.row_ptr);
      EXPECT_EQ(x.body.col_idx, y.body.col_idx);
      EXPECT_EQ(x.body.val, y.body.val);
    }
  }
  EXPECT_EQ(engine.stats(), ref_engine.stats());
}

TEST(Chaos, PersistentShardFaultSurfacesTypedErrorWithoutFallback) {
  const Csr A = chaos_matrix();
  const DenseMatrix B = chaos_b(A.cols, 6);
  reset_metrics();
  SpmmConfig cfg;
  cfg.fault = {fault::FaultSite::kShardExec, 1.0, 2};
  // The baseline CSR kernel has no degraded mode to hide behind.
  EXPECT_THROW(run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cfg), FaultError);
  const FaultCounters c = read_fault_counters();
  expect_accounted(c);
  EXPECT_GT(c.unrecovered, 0);
}

// ---------------------------------------------------------------------
// PlanCache: corrupted entries are evicted and rebuilt, and the caller
// always receives a plan for the matrix it asked about.

TEST(Chaos, CacheEntryCorruptionEvictsAndRebuilds) {
  std::vector<Csr> mats;
  for (u64 s = 1; s <= 6; ++s) mats.push_back(gen_uniform(96, 96, 0.05, s));

  for (double rate : {0.1, 1.0}) {
    for (u64 seed : kSeeds) {
      SCOPED_TRACE("rate " + std::to_string(rate) + " seed " + std::to_string(seed));
      reset_metrics();
      PlanCache cache;
      fault::FaultScope scope({fault::FaultSite::kCacheEntry, rate, seed});
      for (const Csr& m : mats) {
        for (int round = 0; round < 3; ++round) {
          const auto plan = cache.get_or_build(m, {});
          ASSERT_NE(plan, nullptr);
          // The returned plan is always the right one, corrupt or not.
          const Csr& planned = plan->csr_at<value_t>();
          EXPECT_EQ(planned.row_ptr, m.row_ptr);
          EXPECT_EQ(planned.col_idx, m.col_idx);
          EXPECT_EQ(planned.val, m.val);
        }
      }
      const FaultCounters c = read_fault_counters();
      expect_accounted(c);
      EXPECT_EQ(c.recovered, c.injected);  // rebuild always succeeds
      EXPECT_EQ(c.unrecovered, 0);
      EXPECT_EQ(cache.stats().corrupt_evictions, static_cast<u64>(c.injected));
      if (rate == 1.0) {
        // Every non-miss lookup observed corruption: 2 per matrix.
        EXPECT_EQ(c.injected, static_cast<i64>(mats.size()) * 2);
        EXPECT_EQ(cache.stats().hits, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Suite runner: transient arm faults either recover in place (rows
// bit-identical to the fault-free sweep) or mark the row FAILED while
// the rest of the suite completes under the continue policy.

std::vector<MatrixSpec> suite_specs() {
  std::vector<MatrixSpec> specs(4);
  specs[0] = {"uniform-a", MatrixFamily::kUniform, 96, 96, 0.05, 0.0, 0, 21};
  specs[1] = {"uniform-b", MatrixFamily::kUniform, 96, 96, 0.08, 0.0, 0, 22};
  specs[2] = {"powerlaw-a", MatrixFamily::kPowerlawRows, 96, 96, 0.05, 1.2, 0, 23};
  specs[3] = {"banded-a", MatrixFamily::kBanded, 96, 96, 0.5, 0.0, 6, 24};
  return specs;
}

void expect_rows_equal(const SuiteRow& a, const SuiteRow& b) {
  EXPECT_EQ(a.spec.name, b.spec.name);
  EXPECT_EQ(a.profile.ssf, b.profile.ssf);
  EXPECT_EQ(a.t_baseline_ms, b.t_baseline_ms);
  EXPECT_EQ(a.t_dcsr_c_ms, b.t_dcsr_c_ms);
  EXPECT_EQ(a.t_online_b_ms, b.t_online_b_ms);
  EXPECT_EQ(a.t_offline_b_ms, b.t_offline_b_ms);
}

TEST(Chaos, SuiteArmTransientsRecoverOrFailRowsUnderContinue) {
  const auto specs = suite_specs();
  std::map<int, std::vector<SuiteRow>> baseline;
  for (int jobs : kJobs) {
    baseline.emplace(jobs, run_suite(specs, SpmmConfig{}, 8, {}, jobs));
  }

  i64 total_injections = 0;
  for (double rate : kRates) {
    for (u64 seed : kSeeds) {
      std::map<int, FaultCounters> by_jobs;
      for (int jobs : kJobs) {
        SCOPED_TRACE("rate " + std::to_string(rate) + " seed " + std::to_string(seed) +
                     " jobs " + std::to_string(jobs));
        reset_metrics();
        SpmmConfig cfg;
        cfg.fault = {fault::FaultSite::kSuiteArm, rate, seed};
        const auto rows =
            run_suite(specs, cfg, 8, {}, jobs, SuiteErrorPolicy::kContinue);
        ASSERT_EQ(rows.size(), specs.size());  // continue never drops rows
        for (usize i = 0; i < rows.size(); ++i) {
          if (rows[i].ok()) {
            expect_rows_equal(rows[i], baseline.at(jobs)[i]);
          } else {
            EXPECT_NE(rows[i].failure_summary().find("FaultError"), std::string::npos);
          }
        }
        const FaultCounters c = read_fault_counters();
        expect_accounted(c);
        by_jobs[jobs] = c;
      }
      EXPECT_EQ(by_jobs.at(1), by_jobs.at(4));
      total_injections += by_jobs.at(1).injected;
    }
  }
  EXPECT_GT(total_injections, 0) << "no suite-arm fault ever fired: test is vacuous";
}

TEST(Chaos, PersistentSuiteFaultsFailEveryArmYetCompleteUnderContinue) {
  const auto specs = suite_specs();
  reset_metrics();
  SpmmConfig cfg;
  cfg.fault = {fault::FaultSite::kSuiteArm, 1.0, 4};
  const auto rows = run_suite(specs, cfg, 8, {}, 4, SuiteErrorPolicy::kContinue);
  ASSERT_EQ(rows.size(), specs.size());
  for (const auto& r : rows) {
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.failure_summary().find("FaultError"), std::string::npos);
    EXPECT_EQ(r.t_baseline_ms, 0.0);  // failed arms keep zero timings
  }
  const FaultCounters c = read_fault_counters();
  expect_accounted(c);
  EXPECT_EQ(c.unrecovered, static_cast<i64>(specs.size()) * SuiteRow::kArmCount);
}

TEST(Chaos, PersistentSuiteFaultsRethrowUnderFailFast) {
  SpmmConfig cfg;
  cfg.fault = {fault::FaultSite::kSuiteArm, 1.0, 4};
  EXPECT_THROW(run_suite(suite_specs(), cfg, 8, {}, 4), FaultError);
}

// ---------------------------------------------------------------------
// Serialized stream: an injected torn write is caught by the checksum
// trailer — a typed FormatError, never silently parsed garbage.

TEST(Chaos, SerializedStreamTruncationIsDetectedUnrecoverable) {
  const std::string path = testing::TempDir() + "/nmdt_chaos_stream.bin";
  const Csr m = gen_uniform(64, 64, 0.1, 8);
  save_csr_file(path, m);

  for (u64 seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    reset_metrics();
    fault::FaultScope scope({fault::FaultSite::kSerializedStream, 1.0, seed});
    EXPECT_THROW(load_csr_file(path), FormatError);
    const FaultCounters c = read_fault_counters();
    EXPECT_EQ(c.injected, 1);
    EXPECT_EQ(c.detected, 1);
    EXPECT_EQ(c.unrecovered, 1);
    EXPECT_EQ(c.recovered, 0);
  }

  // The same plan at rate 0 loads the pristine file untouched.
  reset_metrics();
  fault::FaultScope scope({fault::FaultSite::kSerializedStream, 0.0, 1});
  const Csr back = load_csr_file(path);
  EXPECT_EQ(back.val, m.val);
  EXPECT_EQ(read_fault_counters(), FaultCounters{});
}

// ---------------------------------------------------------------------
// Rate 0 ≡ disabled: installing the layer with a zero rate changes
// nothing — results, fault counters, and the trace span tree are
// identical to not installing it at all.

using SpanTree = std::vector<std::tuple<u64, std::string, std::string>>;

TEST(Chaos, RateZeroPlanIsBitwiseNoop) {
  const Csr A = chaos_matrix();
  const DenseMatrix B = chaos_b(A.cols, 11);

  struct Leg {
    SpmmResult result;
    FaultCounters counters;
    SpanTree spans;
  };
  const auto leg = [&](bool install) {
    reset_metrics();
    obs::TraceSession session;
    session.install();
    SpmmConfig cfg;
    cfg.jobs = 4;
    if (install) cfg.fault = {fault::FaultSite::kTileVal, 0.0, 42};
    Leg out{run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg), read_fault_counters(),
            {}};
    session.uninstall();
    for (const auto& ev : session.events()) {
      out.spans.emplace_back(ev.track, ev.name, ev.args_json);
    }
    return out;
  };

  const Leg enabled = leg(true);
  const Leg disabled = leg(false);
  expect_identical(enabled.result, disabled.result);
  EXPECT_EQ(enabled.counters, FaultCounters{});
  EXPECT_EQ(enabled.counters, disabled.counters);
  EXPECT_EQ(enabled.spans, disabled.spans);
  EXPECT_FALSE(enabled.spans.empty());
}

}  // namespace
}  // namespace nmdt
