// Tests for the analysis extensions: sampled SSF profiling and the
// energy model.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/sampling.hpp"
#include "core/executor.hpp"
#include "gpusim/energy.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

const TilingSpec kSpec{64, 64};

TEST(Sampling, FullFractionMatchesFullProfileExactly) {
  const Csr A = gen_uniform(512, 512, 0.01, 1);
  const MatrixProfile full = profile_matrix(A, kSpec);
  const SampledProfile s = profile_matrix_sampled(A, kSpec, 1.0, 7);
  EXPECT_EQ(s.rows_sampled, A.rows);
  EXPECT_EQ(s.profile.stats.nnz, full.stats.nnz);
  EXPECT_NEAR(s.profile.h_norm, full.h_norm, 1e-9);
  EXPECT_NEAR(s.profile.ssf, full.ssf, std::abs(full.ssf) * 1e-6 + 1e-9);
}

TEST(Sampling, CountsScaleApproximatelyUnbiased) {
  const Csr A = gen_uniform(2048, 2048, 0.005, 2);
  const MatrixProfile full = profile_matrix(A, kSpec);
  const SampledProfile s = profile_matrix_sampled(A, kSpec, 0.25, 7);
  EXPECT_NEAR(static_cast<double>(s.profile.stats.nnz) / full.stats.nnz, 1.0, 0.1);
  EXPECT_NEAR(static_cast<double>(s.profile.total_strip_row_segments) /
                  full.total_strip_row_segments,
              1.0, 0.1);
  EXPECT_NEAR(s.profile.nnzrow_frac, full.nnzrow_frac, 0.05);
}

TEST(Sampling, SsfWithinOrderOfMagnitudeAtTenPercent) {
  for (u64 seed : {3u, 4u, 5u}) {
    const Csr A = gen_powerlaw_rows(2048, 2048, 0.005, 1.2, seed);
    const MatrixProfile full = profile_matrix(A, kSpec);
    const SampledProfile s = profile_matrix_sampled(A, kSpec, 0.1, 7);
    if (full.ssf > 0 && s.profile.ssf > 0) {
      EXPECT_LT(std::abs(std::log10(s.profile.ssf / full.ssf)), 1.0) << "seed " << seed;
    }
  }
}

TEST(Sampling, DeterministicGivenSeed) {
  const Csr A = gen_uniform(1024, 1024, 0.002, 6);
  const SampledProfile a = profile_matrix_sampled(A, kSpec, 0.2, 42);
  const SampledProfile b = profile_matrix_sampled(A, kSpec, 0.2, 42);
  EXPECT_EQ(a.profile.ssf, b.profile.ssf);
  const SampledProfile c = profile_matrix_sampled(A, kSpec, 0.2, 43);
  EXPECT_NE(a.nnz_sampled, 0);
  (void)c;  // different seed must still run
}

TEST(Sampling, EnforcesMinimumSample) {
  const Csr A = gen_uniform(256, 256, 0.05, 7);
  const SampledProfile s = profile_matrix_sampled(A, kSpec, 0.001, 7);
  EXPECT_GE(s.rows_sampled, 32);
}

TEST(Sampling, RejectsBadFraction) {
  const Csr A = gen_uniform(64, 64, 0.1, 8);
  EXPECT_THROW(profile_matrix_sampled(A, kSpec, 0.0, 1), ConfigError);
  EXPECT_THROW(profile_matrix_sampled(A, kSpec, 1.5, 1), ConfigError);
}

// ---------------------------------------------------------------------
// Energy model.
// ---------------------------------------------------------------------

TEST(Energy, ComponentsScaleWithTheirDrivers) {
  const EnergyModel model;
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters counters;
  counters.fp_instr = 1000;
  MemStats mem;
  mem.channels.assign(64, {});
  mem.channels[0].read_bytes = 1'000'000;
  mem.l2_service_bytes = 2'000'000;
  mem.xbar_bytes = 500'000;
  TimingBreakdown timing;
  timing.total_ns = 1000.0;
  const EnergyBreakdown e = estimate_energy(model, arch, counters, mem, 100, timing);
  EXPECT_NEAR(e.dram_uj, 1e6 * 31.0 * 1e-6, 1e-9);
  EXPECT_NEAR(e.l2_uj, 2e6 * 1.2 * 1e-6, 1e-9);
  EXPECT_NEAR(e.xbar_uj, 5e5 * 0.6 * 1e-9 * 1e3, 1e-9);
  EXPECT_NEAR(e.engine_uj, 100 * 6.29 * 1e-6, 1e-12);
  EXPECT_NEAR(e.static_uj, arch.idle_watts * 1.0, 1e-9);  // 1 µs at idle W
  EXPECT_GT(e.total_uj(), e.dram_uj);
}

TEST(Energy, EngineEnergyIsNegligibleInRealKernels) {
  // Sec. 5.3's amortization claim, end to end.
  const Csr A = gen_banded(2048, 64, 0.15, 9);
  Rng rng(1);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = evaluation_config(A.rows, 64);
  const SpmmResult r = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
  const EnergyBreakdown e =
      estimate_energy(EnergyModel{}, cfg.arch, r.counters, r.mem, r.engine.steps, r.timing);
  EXPECT_LT(e.engine_uj, 0.01 * e.total_uj());
  EXPECT_GT(e.engine_uj, 0.0);
}

TEST(Energy, FasterKernelBurnsLessStaticEnergy) {
  const Csr A = gen_powerlaw_rows(2048, 2048, 0.005, 1.8, 10);
  Rng rng(2);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = evaluation_config(A.rows, 64);
  const SpmmResult slow = run_one_shot(KernelKind::kDcsrCStationary, A, B, cfg);
  const SpmmResult fast = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
  ASSERT_LT(fast.timing.total_ns, slow.timing.total_ns);
  const EnergyModel m;
  const double e_slow =
      estimate_energy(m, cfg.arch, slow.counters, slow.mem, 0, slow.timing).static_uj;
  const double e_fast =
      estimate_energy(m, cfg.arch, fast.counters, fast.mem, fast.engine.steps, fast.timing)
          .static_uj;
  EXPECT_LT(e_fast, e_slow);
}

}  // namespace
}  // namespace nmdt
