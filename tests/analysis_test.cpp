// Analysis-module tests: profile entropy bounds and extremes, SSF
// monotonicity properties, Table-1 traffic-model identities (including
// agreement with the simulated kernels), bytes/FLOP, and the threshold
// learner.
#include <gtest/gtest.h>

#include "analysis/heuristic.hpp"
#include "analysis/profile.hpp"
#include "analysis/traffic_model.hpp"
#include "core/executor.hpp"
#include "formats/convert.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

const TilingSpec kSpec{64, 64};

TEST(Entropy, InUnitInterval) {
  for (u64 seed = 0; seed < 5; ++seed) {
    const Csr m = gen_uniform(256, 256, 0.01, seed);
    const double h = profile_matrix(m, kSpec).h_norm;
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0 + 1e-12);
  }
}

TEST(Entropy, AllSingletonSegmentsGiveMaximumEntropy) {
  // One non-zero per row, all in one strip: every segment is a
  // singleton, H = log(nnz) exactly, H_norm = 1.
  Coo coo;
  coo.rows = 128;
  coo.cols = 64;
  for (index_t r = 0; r < 128; ++r) coo.push(r, r % 64, 1.0f);
  EXPECT_NEAR(profile_matrix(csr_from_coo(coo), kSpec).h_norm, 1.0, 1e-12);
}

TEST(Entropy, SingleHeavySegmentGivesZeroEntropy) {
  // All non-zeros in one row of one strip: one segment, H = 0.
  Coo coo;
  coo.rows = 128;
  coo.cols = 64;
  for (index_t c = 0; c < 64; ++c) coo.push(5, c, 1.0f);
  EXPECT_NEAR(profile_matrix(csr_from_coo(coo), kSpec).h_norm, 0.0, 1e-12);
}

TEST(Entropy, DegenerateMatrices) {
  Coo empty;
  empty.rows = 64;
  empty.cols = 64;
  EXPECT_DOUBLE_EQ(profile_matrix(csr_from_coo(empty), kSpec).h_norm, 0.0);
  Coo one;
  one.rows = 64;
  one.cols = 64;
  one.push(3, 3, 1.0f);
  EXPECT_DOUBLE_EQ(profile_matrix(csr_from_coo(one), kSpec).h_norm, 0.0);
}

TEST(Profile, UniformMatrixHasNearOneEntropyAndSmallSsf) {
  // Scattered non-zeros → almost every row segment is a singleton →
  // H_norm ≈ 1 and the (1 - H_norm) factor crushes the SSF relative to
  // an equally sized clustered matrix (the Fig. 4 x-axis spread).
  const Csr m = gen_uniform(1024, 1024, 0.001, 7);
  const MatrixProfile p = profile_matrix(m, kSpec);
  EXPECT_GT(p.h_norm, 0.95);
  const Csr clustered = gen_block_clustered(1024, 16, 0.03, 0.0, 7);
  const MatrixProfile pc = profile_matrix(clustered, kSpec);
  EXPECT_LT(p.ssf, pc.ssf / 10.0);
}

TEST(Profile, ClusteredMatrixHasLargerSsfThanUniform) {
  const Csr uniform = gen_uniform(1024, 1024, 0.002, 8);
  const Csr clustered = gen_block_clustered(1024, 16, 0.08, 0.0001, 9);
  const double ssf_u = profile_matrix(uniform, kSpec).ssf;
  const double ssf_c = profile_matrix(clustered, kSpec).ssf;
  EXPECT_GT(ssf_c, 10.0 * ssf_u);
}

TEST(Profile, StripRowSegmentsMatchTiling) {
  const Csr m = gen_uniform(300, 300, 0.01, 10);
  const MatrixProfile p = profile_matrix(m, kSpec);
  i64 tile_rows = 0;
  for (const auto& strip : tiled_dcsr_from_csr(m, kSpec).strips) {
    for (const DcsrTile& tile : strip) tile_rows += tile.nnz_rows();
  }
  EXPECT_EQ(p.total_tile_row_segments, tile_rows);
  // A row belongs to exactly one tile per strip, so strip and tile
  // granularities agree.
  EXPECT_EQ(p.total_strip_row_segments, p.total_tile_row_segments);
}

TEST(Profile, FractionsAreConsistent) {
  const Csr m = gen_powerlaw_rows(512, 512, 0.005, 1.3, 11);
  const MatrixProfile p = profile_matrix(m, kSpec);
  EXPECT_GT(p.nnzrow_frac, 0.0);
  EXPECT_LE(p.nnzrow_frac, 1.0);
  EXPECT_LE(p.mean_strip_nnzrow_frac, p.nnzrow_frac + 1e-12)
      << "a strip can only contain a subset of the non-empty rows";
}

// ---------------------------------------------------------------------
// Table 1 traffic model.
// ---------------------------------------------------------------------

TEST(Traffic, SingleFetchArmsMatchFootprints) {
  const Csr m = gen_uniform(512, 512, 0.01, 12);
  const MatrixProfile p = profile_matrix(m, kSpec);
  const index_t K = 64;
  const auto a_stat = estimate_traffic(p, Strategy::kAStationary, K, kSpec);
  const auto b_stat = estimate_traffic(p, Strategy::kBStationary, K, kSpec);
  const auto c_stat = estimate_traffic(p, Strategy::kCStationary, K, kSpec);
  // A-stationary fetches A exactly once.
  EXPECT_DOUBLE_EQ(a_stat.a_bytes, static_cast<double>(csr_bytes(m.rows, m.nnz())));
  // C writes each non-empty C row once.
  EXPECT_DOUBLE_EQ(c_stat.c_bytes, static_cast<double>(p.stats.nonzero_rows) * K * 4);
  // B single fetch for B-stationary ≤ B multiple fetch for C-stationary.
  EXPECT_LE(b_stat.b_bytes, c_stat.b_bytes);
  // Atomic arms pay 2×.
  EXPECT_DOUBLE_EQ(b_stat.c_bytes,
                   static_cast<double>(p.total_strip_row_segments) * K * 4 * 2);
  EXPECT_DOUBLE_EQ(a_stat.c_bytes, b_stat.c_bytes);
}

TEST(Traffic, UniformClosedFormTracksMeasuredProfile) {
  const index_t n = 1024;
  const double d = 0.002;
  const Csr m = gen_uniform(n, n, d, 13);
  const MatrixProfile p = profile_matrix(m, kSpec);
  const auto measured = estimate_traffic(p, Strategy::kBStationary, 64, kSpec);
  const auto closed = estimate_traffic_uniform(n, d, Strategy::kBStationary, 64, kSpec);
  EXPECT_NEAR(measured.c_bytes / closed.c_bytes, 1.0, 0.15);
  EXPECT_NEAR(measured.b_bytes / closed.b_bytes, 1.0, 0.15);
}

TEST(Traffic, ExpectedStripRowsFormula) {
  // {1 - (1-d)^k}·n at d=0.01, k=64: 1-(0.99)^64 ≈ 0.4746.
  EXPECT_NEAR(expected_strip_rows_uniform(1000, 0.01, 64), 474.6, 1.0);
  EXPECT_DOUBLE_EQ(expected_strip_rows_uniform(1000, 0.0, 64), 0.0);
  EXPECT_DOUBLE_EQ(expected_strip_rows_uniform(1000, 1.0, 64), 1000.0);
}

TEST(Traffic, ModelMatchesSimulatedKernelWithinFactor) {
  // The Table 1 model and the instrumented kernels should agree on
  // total traffic within sector-granularity slack.
  const Csr m = gen_uniform(512, 512, 0.01, 14);
  const MatrixProfile p = profile_matrix(m, kSpec);
  Rng rng(1);
  DenseMatrix B(m.cols, 64);
  B.randomize(rng);
  SpmmConfig cfg;
  const auto model = estimate_traffic(p, Strategy::kCStationary, 64, kSpec);
  const SpmmResult sim = run_one_shot(KernelKind::kCsrCStationaryRowWarp, m, B, cfg);
  const double simulated = static_cast<double>(sim.mem.total_dram_bytes());
  EXPECT_GT(simulated, 0.5 * model.total());
  EXPECT_LT(simulated, 2.0 * model.total());
}

TEST(Traffic, BytesPerFlopFormula) {
  // (8nnz + 4(N+1) + 8N²) / (2 nnz N); memory-bound vs GV100 balance.
  const double bf = bytes_per_flop(20000, 400000);
  EXPECT_NEAR(bf, 0.2, 0.01);
  EXPECT_GT(bf, machine_balance_bytes_per_flop(870.4, 15.7));
  EXPECT_THROW(bytes_per_flop(0, 1), ConfigError);
}

// ---------------------------------------------------------------------
// SSF threshold learner.
// ---------------------------------------------------------------------

TEST(Heuristic, PerfectlySeparableDataGivesFullAccuracy) {
  std::vector<SsfSample> s;
  for (int i = 0; i < 10; ++i) s.push_back({static_cast<double>(i), 0.5});       // C wins
  for (int i = 10; i < 20; ++i) s.push_back({static_cast<double>(i), 2.0});      // B wins
  const SsfThreshold t = learn_ssf_threshold(s);
  EXPECT_DOUBLE_EQ(t.accuracy, 1.0);
  EXPECT_GT(t.threshold, 9.0);
  EXPECT_LT(t.threshold, 10.0);
  EXPECT_EQ(t.misclassified, 0);
}

TEST(Heuristic, AllOneClassPicksOpenEnd) {
  std::vector<SsfSample> s;
  for (int i = 0; i < 5; ++i) s.push_back({static_cast<double>(i), 0.5});
  const SsfThreshold t = learn_ssf_threshold(s);
  EXPECT_DOUBLE_EQ(t.accuracy, 1.0);
  EXPECT_GT(t.threshold, 4.0);  // everything classified C-stationary
}

TEST(Heuristic, NoisyDataStillAboveMajority) {
  Rng rng(5);
  std::vector<SsfSample> s;
  for (int i = 0; i < 200; ++i) {
    const double ssf = rng.uniform(0.0, 100.0);
    const bool b_better = ssf > 50.0 ? rng.chance(0.9) : rng.chance(0.1);
    s.push_back({ssf, b_better ? 2.0 : 0.5});
  }
  const SsfThreshold t = learn_ssf_threshold(s);
  EXPECT_GT(t.accuracy, 0.85);
  EXPECT_EQ(t.total, 200);
}

TEST(Heuristic, EmptyInputThrows) {
  EXPECT_THROW(learn_ssf_threshold(std::span<const SsfSample>{}), FormatError);
}

TEST(Heuristic, SelectionRule) {
  EXPECT_EQ(select_strategy(10.0, 5.0), Strategy::kBStationary);
  EXPECT_EQ(select_strategy(1.0, 5.0), Strategy::kCStationary);
  EXPECT_EQ(select_strategy(5.0, 5.0), Strategy::kCStationary);  // boundary → C
}

TEST(Heuristic, StrategyNamesDistinct) {
  EXPECT_STRNE(strategy_name(Strategy::kAStationary), strategy_name(Strategy::kBStationary));
  EXPECT_STRNE(strategy_name(Strategy::kBStationary), strategy_name(Strategy::kCStationary));
}

}  // namespace
}  // namespace nmdt
