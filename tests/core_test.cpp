// End-to-end tests of the public API: GetDCSRTile (Fig. 11 semantics),
// SpmmEngine heuristic selection + verification, and the suite runner.
#include <gtest/gtest.h>

#include "core/get_dcsr_tile.hpp"
#include "core/spmm_engine.hpp"
#include "formats/convert.hpp"
#include "matgen/generators.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(GetDcsrTile, Fig11LoopConvertsWholeStrip) {
  const Csr csr = gen_uniform(300, 64, 0.05, 1);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;

  // The device-code pattern of Fig. 11: zeroed col_frontier, advance by
  // DCSR_HEIGHT per call.
  std::vector<index_t> col_frontier(64, 0);
  i64 total_nnz = 0;
  i64 total_rows = 0;
  for (index_t row_start = 0; row_start < csr.rows; row_start += spec.tile_height) {
    const DcsrTileHandle h = GetDCSRTile(csc, 0, row_start, col_frontier, spec, engine);
    total_nnz += h.nnz;
    total_rows += h.nnzrows;
    EXPECT_EQ(h.nnz, h.tile.nnz());
  }
  EXPECT_EQ(total_nnz, csr.nnz());
  i64 offline_rows = 0;
  for (const auto& strip : tiled_dcsr_from_csr(csr, spec).strips) {
    for (const DcsrTile& tile : strip) offline_rows += tile.nnz_rows();
  }
  EXPECT_EQ(total_rows, offline_rows);
  // Frontier ends at the column lengths.
  for (index_t l = 0; l < 64; ++l) {
    EXPECT_EQ(col_frontier[l], csc.col_ptr[l + 1] - csc.col_ptr[l]);
  }
}

TEST(GetDcsrTile, TilesMatchOfflineTiling) {
  const Csr csr = gen_powerlaw_cols(200, 128, 0.03, 1.1, 2);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  const TiledDcsr offline = tiled_dcsr_from_csr(csr, spec);
  ConversionEngine engine;
  for (index_t s = 0; s < spec.num_strips(csr.cols); ++s) {
    std::vector<index_t> frontier(64, 0);
    for (index_t t = 0; t * spec.tile_height < csr.rows; ++t) {
      const DcsrTileHandle h =
          GetDCSRTile(csc, s, t * spec.tile_height, frontier, spec, engine);
      const Dcsr& expect = offline.strips[s][t].body;
      EXPECT_EQ(h.tile.body.row_idx, expect.row_idx);
      EXPECT_EQ(h.tile.body.col_idx, expect.col_idx);
      EXPECT_EQ(h.tile.body.val, expect.val);
    }
  }
}

TEST(GetDcsrTile, RejectsShortFrontier) {
  const Csr csr = gen_uniform(64, 64, 0.1, 3);
  const Csc csc = csc_from_csr(csr);
  ConversionEngine engine;
  std::vector<index_t> frontier(10, 0);  // too short for a 64-wide strip
  EXPECT_THROW(GetDCSRTile(csc, 0, 0, frontier, TilingSpec{64, 64}, engine), FormatError);
}

TEST(GetDcsrTile, RejectsCorruptFrontier) {
  const Csr csr = gen_uniform(64, 64, 0.1, 4);
  const Csc csc = csc_from_csr(csr);
  ConversionEngine engine;
  std::vector<index_t> frontier(64, 0);
  frontier[0] = 10000;  // beyond the column length
  EXPECT_THROW(GetDCSRTile(csc, 0, 0, frontier, TilingSpec{64, 64}, engine), FormatError);
}

TEST(SpmmEngine, RunsAndVerifiesUniformMatrix) {
  const Csr A = gen_uniform(512, 512, 0.002, 5);
  // Pick a threshold above this matrix's SSF so the mechanism routes to
  // C-stationary (uniform matrices sit far below clustered ones on the
  // SSF axis; the shipped default is trained on the standard suite).
  EngineOptions opt;
  opt.ssf_threshold = profile_matrix(A, opt.spmm.tiling).ssf + 1.0;
  const SpmmEngine engine(opt);
  Rng rng(1);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmReport report = engine.run(A, B);
  EXPECT_LT(report.max_abs_error, 1e-3);
  ASSERT_TRUE(report.baseline.has_value());
  EXPECT_GT(report.speedup_vs_baseline, 0.0);
  EXPECT_EQ(report.chosen, Strategy::kCStationary);
  EXPECT_EQ(report.kernel, KernelKind::kDcsrCStationary);
}

TEST(SpmmEngine, SelectsBStationaryAboveThreshold) {
  const Csr A = gen_block_clustered(512, 8, 0.15, 0.0001, 6);
  EngineOptions opt;
  opt.ssf_threshold = profile_matrix(A, opt.spmm.tiling).ssf / 2.0;
  const SpmmEngine engine(opt);
  Rng rng(2);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmReport report = engine.run(A, B);
  EXPECT_EQ(report.chosen, Strategy::kBStationary);
  EXPECT_EQ(report.kernel, KernelKind::kTiledDcsrOnline);
  EXPECT_LT(report.max_abs_error, 1e-3);
}

TEST(SpmmEngine, SsfOrdersUniformBelowClustered) {
  // The property behind the shipped default threshold: clustered
  // matrices sit well above equally sized uniform ones on the SSF axis.
  const TilingSpec spec{64, 64};
  const double ssf_uniform = profile_matrix(gen_uniform(512, 512, 0.002, 5), spec).ssf;
  const double ssf_clustered =
      profile_matrix(gen_block_clustered(512, 8, 0.15, 0.0001, 6), spec).ssf;
  EXPECT_LT(ssf_uniform, ssf_clustered);
}

TEST(SpmmEngine, RunKernelBypassesHeuristic) {
  const SpmmEngine engine;
  const Csr A = gen_uniform(128, 128, 0.02, 7);
  Rng rng(3);
  DenseMatrix B(A.cols, 32);
  B.randomize(rng);
  const SpmmResult res = engine.run_kernel(KernelKind::kAStationary, A, B);
  EXPECT_LE(res.C.max_abs_diff(spmm_reference(A, B)), 1e-3);
}

TEST(SpmmEngine, OptionsCanDisableBaselineAndVerify) {
  EngineOptions opt;
  opt.run_baseline = false;
  opt.verify = false;
  const SpmmEngine engine(opt);
  const Csr A = gen_uniform(128, 128, 0.02, 8);
  Rng rng(4);
  DenseMatrix B(A.cols, 32);
  B.randomize(rng);
  const SpmmReport report = engine.run(A, B);
  EXPECT_FALSE(report.baseline.has_value());
  EXPECT_DOUBLE_EQ(report.max_abs_error, 0.0);
}

TEST(SuiteRunner, ProducesOneRowPerSpecWithProgress)
{
  std::vector<MatrixSpec> specs;
  specs.push_back({.name = "u1", .family = MatrixFamily::kUniform, .rows = 128,
                   .cols = 128, .density = 0.01, .seed = 1});
  specs.push_back({.name = "p1", .family = MatrixFamily::kPowerlawRows, .rows = 128,
                   .cols = 128, .density = 0.01, .skew = 1.2, .seed = 2});
  SpmmConfig cfg;
  usize calls = 0;
  const auto rows = run_suite(specs, cfg, 32, [&](usize done, usize total, const SuiteRow&) {
    ++calls;
    EXPECT_LE(done, total);
  });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(calls, 2u);
  for (const auto& r : rows) {
    EXPECT_GT(r.t_baseline_ms, 0.0);
    EXPECT_GT(r.t_dcsr_c_ms, 0.0);
    EXPECT_GT(r.t_online_b_ms, 0.0);
    EXPECT_GT(r.t_offline_b_ms, 0.0);
    EXPECT_GT(r.offline_prep_ms, 0.0);
    EXPECT_GT(r.ratio_c_over_b(), 0.0);
  }
}

TEST(SuiteRunner, TrainThresholdOnRows) {
  // Synthetic rows with a clean split at ssf = 10.
  std::vector<SuiteRow> rows(20);
  for (usize i = 0; i < rows.size(); ++i) {
    rows[i].profile.ssf = static_cast<double>(i);
    rows[i].t_dcsr_c_ms = i >= 10 ? 2.0 : 1.0;
    rows[i].t_online_b_ms = i >= 10 ? 1.0 : 2.0;
  }
  const SsfThreshold t = train_threshold(rows);
  EXPECT_DOUBLE_EQ(t.accuracy, 1.0);
  EXPECT_GT(t.threshold, 9.0);
  EXPECT_LT(t.threshold, 10.0);
}

}  // namespace
}  // namespace nmdt
