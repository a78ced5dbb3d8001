// Layout / load-balancing tests (Sec. 6.1) and the multi-GPU streaming
// planner (Sec. 6.2).
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "sched/layout.hpp"
#include "sched/multigpu.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(Layout, CampingPinsStripToOneChannel) {
  const StripPlacement p(PlacementPolicy::kStripCamping, 8);
  for (index_t t = 0; t < 100; ++t) EXPECT_EQ(p.channel_for(3, t), 3);
  EXPECT_EQ(p.channel_for(11, 0), 3);  // wraps
}

TEST(Layout, RotationSpreadsTilesAcrossChannels) {
  const StripPlacement p(PlacementPolicy::kTileRotation, 8);
  std::set<int> channels;
  for (index_t t = 0; t < 8; ++t) channels.insert(p.channel_for(0, t));
  EXPECT_EQ(channels.size(), 8u);
}

TEST(Layout, HandoffBytesAreSmall) {
  // col_idx_frontier (64×4B) + next_fb_ptr: trivially small vs tile
  // payloads — the Sec. 6.1 claim that the handoff is negligible.
  EXPECT_EQ(StripPlacement::switch_handoff_bytes(64), 64 * 4 + 8);
}

TEST(Layout, ImbalanceMetricDetectsCamping) {
  MemStats stats;
  stats.channels.assign(64, {});
  // All traffic on one partition (channels 0..7).
  for (int c = 0; c < 8; ++c) stats.channels[c].read_bytes = 1000;
  EXPECT_NEAR(partition_imbalance(stats, 8), 8.0, 1e-9);
  // Balanced traffic.
  for (auto& ch : stats.channels) ch.read_bytes = 100;
  EXPECT_NEAR(partition_imbalance(stats, 8), 1.0, 1e-9);
}

TEST(Layout, EmptyStatsAreBalanced) {
  MemStats stats;
  stats.channels.assign(64, {});
  EXPECT_DOUBLE_EQ(partition_imbalance(stats, 8), 1.0);
}

TEST(Layout, OnlineKernelBalancesWithRotation) {
  // End-to-end: the online kernel under camping placement must show
  // worse partition balance than under tile rotation (Fig. 17).
  const Csr A = gen_uniform(1024, 1024, 0.005, 55);
  Rng rng(1);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  SpmmConfig camping;
  camping.placement = PlacementPolicy::kStripCamping;
  SpmmConfig rotation;
  rotation.placement = PlacementPolicy::kTileRotation;
  const SpmmResult r_camp = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, camping);
  const SpmmResult r_rot = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, rotation);
  EXPECT_GT(r_camp.engine_busy_ns, r_rot.engine_busy_ns)
      << "camping serializes conversions on few engines";
  EXPECT_EQ(r_camp.engine.elements, r_rot.engine.elements)
      << "placement must not change the work, only its distribution";
}

TEST(Layout, InvalidConfigThrows) {
  EXPECT_THROW(StripPlacement(PlacementPolicy::kTileRotation, 0), ConfigError);
  MemStats stats;
  EXPECT_THROW(partition_imbalance(stats, 0), ConfigError);
}

// ---------------------------------------------------------------------
// Multi-GPU planner.
// ---------------------------------------------------------------------

MatrixStats big_matrix_stats(index_t n, double density) {
  MatrixStats s;
  s.rows = n;
  s.cols = n;
  s.nnz = static_cast<i64>(density * static_cast<double>(n) * n);
  s.density = density;
  return s;
}

TEST(MultiGpu, SmallProblemFitsUnchunked) {
  const MatrixStats s = big_matrix_stats(44000, 0.001);
  MultiGpuConfig cfg;
  const MultiGpuPlan plan = plan_multi_gpu(s, 44000, csr_bytes(s.rows, s.nnz), cfg);
  EXPECT_TRUE(plan.fits_unchunked);
  EXPECT_EQ(plan.num_chunks, 1);
  EXPECT_GT(plan.overlap_efficiency, 0.0);
}

TEST(MultiGpu, HugeProblemRequiresChunking) {
  // 2M×2M dense B/C is ~17 TB (the paper's example): must chunk.
  const MatrixStats s = big_matrix_stats(2'000'000, 1e-5);
  MultiGpuConfig cfg;
  const MultiGpuPlan plan = plan_multi_gpu(s, 2'000'000, csr_bytes(s.rows, s.nnz), cfg);
  EXPECT_FALSE(plan.fits_unchunked);
  EXPECT_GT(plan.num_chunks, 1);
  EXPECT_GT(plan.b_bytes_per_gpu, i64{1} << 40);  // > 1 TiB per GPU
}

TEST(MultiGpu, MoreGpusShrinkPerGpuWork) {
  const MatrixStats s = big_matrix_stats(500'000, 1e-5);
  MultiGpuConfig two;
  two.gpus = 2;
  MultiGpuConfig eight;
  eight.gpus = 8;
  const i64 a_bytes = csr_bytes(s.rows, s.nnz);
  const MultiGpuPlan p2 = plan_multi_gpu(s, 500'000, a_bytes, two);
  const MultiGpuPlan p8 = plan_multi_gpu(s, 500'000, a_bytes, eight);
  EXPECT_NEAR(static_cast<double>(p2.b_bytes_per_gpu) / p8.b_bytes_per_gpu, 4.0, 0.01);
  EXPECT_LT(p8.total_ns, p2.total_ns);
}

TEST(MultiGpu, CompactAFormatImprovesChunking) {
  // The Sec. 6.2 argument: CSC (compact) leaves more room for B/C
  // chunks than a pre-tiled DCSR image ~1.4x larger → fewer chunks,
  // fewer A re-reads, faster total.
  const MatrixStats s = big_matrix_stats(400'000, 5e-5);
  MultiGpuConfig cfg;
  cfg.gpu_memory_gb = 16.0;
  const i64 csc_size = csr_bytes(s.rows, s.nnz);
  const i64 tiled_size = static_cast<i64>(csc_size * 1.4);
  const MultiGpuPlan compact = plan_multi_gpu(s, 400'000, csc_size, cfg);
  const MultiGpuPlan tiled = plan_multi_gpu(s, 400'000, tiled_size, cfg);
  EXPECT_LE(compact.num_chunks, tiled.num_chunks);
  EXPECT_LE(compact.compute_ns, tiled.compute_ns);
}

TEST(MultiGpu, RejectsImpossibleConfigs) {
  const MatrixStats s = big_matrix_stats(1000, 0.01);
  MultiGpuConfig cfg;
  cfg.gpus = 0;
  EXPECT_THROW(plan_multi_gpu(s, 64, 1000, cfg), ConfigError);
  MultiGpuConfig tiny;
  tiny.gpu_memory_gb = 1e-9;
  EXPECT_THROW(plan_multi_gpu(s, 64, 1000, tiny), ConfigError);
}

}  // namespace
}  // namespace nmdt
