// End-to-end integration tests: file I/O → engine → verification across
// every matrix family, invariance properties of the full pipeline, and
// the Fig. 16 orderings at test scale.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "core/spmm_engine.hpp"
#include "formats/matrix_market.hpp"
#include "formats/serialize.hpp"
#include "matgen/generators.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(Integration, EngineVerifiesEveryFamilyInSmokeSuite) {
  EngineOptions options;
  options.spmm = evaluation_config(512, 32);
  const SpmmEngine engine(options);
  Rng rng(1);
  for (const auto& spec : smoke_suite()) {
    const Csr A = spec.generate();
    DenseMatrix B(A.cols, 32);
    B.randomize(rng);
    const SpmmReport r = engine.run(A, B);
    EXPECT_LT(r.max_abs_error, 1e-2) << spec.name;
    EXPECT_GT(r.result.timing.total_ns, 0.0) << spec.name;
    ASSERT_TRUE(r.baseline.has_value());
  }
}

TEST(Integration, MatrixMarketToEngineRoundTrip) {
  // Write a generated matrix to a Matrix Market file, reload it the way
  // a user would, and push it through the heuristic engine.
  const Csr original = gen_block_clustered(300, 6, 0.1, 0.001, 2);
  const std::string path = testing::TempDir() + "/nmdt_integration.mtx";
  write_matrix_market_file(path, coo_from_csr(original));
  const Csr loaded = csr_from_coo(read_matrix_market_file(path));
  EXPECT_EQ(loaded.nnz(), original.nnz());

  Rng rng(3);
  DenseMatrix B(loaded.cols, 16);
  B.randomize(rng);
  EngineOptions options;
  options.spmm = evaluation_config(loaded.rows, 16);
  const SpmmReport r = SpmmEngine(options).run(loaded, B);
  EXPECT_LT(r.max_abs_error, 1e-3);
}

TEST(Integration, BinaryAndMarketFormatsAgree) {
  const Csr m = gen_powerlaw_cols(200, 200, 0.02, 1.1, 4);
  const std::string mtx = testing::TempDir() + "/nmdt_agree.mtx";
  const std::string bin = testing::TempDir() + "/nmdt_agree.bin";
  write_matrix_market_file(mtx, coo_from_csr(m));
  save_csr_file(bin, m);
  const Csr from_mtx = csr_from_coo(read_matrix_market_file(mtx));
  const Csr from_bin = load_csr_file(bin);
  EXPECT_EQ(from_mtx.row_ptr, from_bin.row_ptr);
  EXPECT_EQ(from_mtx.col_idx, from_bin.col_idx);
  // Matrix Market is decimal text: values agree to print precision.
  ASSERT_EQ(from_mtx.val.size(), from_bin.val.size());
  for (usize i = 0; i < from_mtx.val.size(); ++i) {
    EXPECT_NEAR(from_mtx.val[i], from_bin.val[i], 1e-5);
  }
}

TEST(Integration, PlacementPolicyDoesNotChangeResults) {
  const Csr A = gen_uniform(500, 500, 0.01, 5);
  Rng rng(6);
  DenseMatrix B(A.cols, 48);
  B.randomize(rng);
  SpmmConfig camping = evaluation_config(A.rows, 48);
  camping.placement = PlacementPolicy::kStripCamping;
  SpmmConfig rotation = camping;
  rotation.placement = PlacementPolicy::kTileRotation;
  const DenseMatrix c1 = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, camping).C;
  const DenseMatrix c2 = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, rotation).C;
  EXPECT_DOUBLE_EQ(c1.max_abs_diff(c2), 0.0);
}

TEST(Integration, MemModeDoesNotChangeResults) {
  const Csr A = gen_banded(400, 8, 0.4, 7);
  Rng rng(8);
  DenseMatrix B(A.cols, 40);
  B.randomize(rng);
  SpmmConfig counting;
  SpmmConfig cached;
  cached.mem_mode = MemMode::kCacheSim;
  for (KernelKind kind : {KernelKind::kCsrCStationaryRowWarp,
                          KernelKind::kTiledDcsrOnline, KernelKind::kHongHybrid}) {
    const DenseMatrix c1 = run_one_shot(kind, A, B, counting).C;
    const DenseMatrix c2 = run_one_shot(kind, A, B, cached).C;
    EXPECT_DOUBLE_EQ(c1.max_abs_diff(c2), 0.0) << kernel_name(kind);
  }
}

TEST(Integration, SuiteOrderingsHoldAtTestScale) {
  // The Fig. 16 shape checks on the tiny suite: hybrid >= blind, and
  // offline-with-prep <= online for the B-preferring matrices.
  const SpmmConfig cfg = evaluation_config(512, 32);
  const auto rows = run_suite(standard_suite(SuiteScale::kTiny), cfg, 32);
  ASSERT_GT(rows.size(), 10u);
  const SsfThreshold th = train_threshold(rows);
  double hybrid_log = 0.0, blind_log = 0.0;
  for (const auto& r : rows) {
    const bool use_b = r.profile.ssf > th.threshold;
    hybrid_log += std::log(r.t_baseline_ms / (use_b ? r.t_online_b_ms : r.t_dcsr_c_ms));
    blind_log += std::log(r.speedup_online_b_arm());
  }
  // The learned threshold maximizes classification accuracy, not the
  // geomean, so at tiny (launch-dominated) scale it may trail blind
  // all-tiling by noise; allow 1% per matrix of slack.
  EXPECT_GE(hybrid_log, blind_log - 0.01 * static_cast<double>(rows.size()))
      << "heuristic selection must not meaningfully lose to blind all-tiling";
  EXPECT_GE(th.accuracy, 0.5);
}

TEST(Integration, SampledProfilingAgreesWithFullOnEngineDecision) {
  const Csr clustered = gen_block_clustered(1024, 16, 0.08, 1e-4, 9);
  Rng rng(10);
  DenseMatrix B(clustered.cols, 32);
  B.randomize(rng);
  EngineOptions full;
  full.spmm = evaluation_config(clustered.rows, 32);
  full.run_baseline = false;
  EngineOptions sampled = full;
  sampled.profile_sample_fraction = 0.25;
  const SpmmReport r_full = SpmmEngine(full).run(clustered, B);
  const SpmmReport r_sampled = SpmmEngine(sampled).run(clustered, B);
  EXPECT_EQ(r_full.chosen, r_sampled.chosen);
  EXPECT_LT(r_sampled.max_abs_error, 1e-3);
}

}  // namespace
}  // namespace nmdt
