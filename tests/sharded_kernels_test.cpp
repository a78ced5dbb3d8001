// Intra-kernel sharding tests.  The load-bearing property is the
// determinism contract of kernels/detail.hpp: the shard decomposition
// is a function of the work size alone, so one SpMM run produces
// bit-identical C and bit-identical simulated metrics at every
// --jobs value, in both memory modes, for every kernel family.
//
// The small ShardedKernels.* cases run under the tsan preset (data-race
// coverage of the shard fan-out); the KernelShardingSweep.* cases are
// the exhaustive 9-kernel × mode × jobs matrix on a large-enough
// matrix that every family actually splits into multiple shards.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>

#include "core/executor.hpp"
#include "kernels/detail.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

void expect_same_bits(const SpmmResult& a, const SpmmResult& b) {
  const auto x = result_bits(a);
  const auto y = result_bits(b);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0);
}

/// Every observable of an SpMM run, compared exactly.
void expect_identical(const SpmmResult& a, const SpmmResult& b) {
  expect_same_bits(a, b);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mem, b.mem);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.engine_busy_ns, b.engine_busy_ns);
  EXPECT_EQ(a.offline_prep_ns, b.offline_prep_ns);
  EXPECT_EQ(a.timing.total_ns, b.timing.total_ns);
}

DenseMatrix random_b(index_t rows, index_t cols, u64 seed) {
  Rng rng(seed);
  DenseMatrix B(rows, cols);
  B.randomize(rng);
  return B;
}

// ---------------------------------------------------------------------
// Decomposition units.
// ---------------------------------------------------------------------

TEST(ShardedKernels, ShardCountDependsOnWorkSizeOnly) {
  using detail::kMaxKernelShards;
  using detail::shard_count;
  EXPECT_EQ(shard_count(0, 16), 1);
  EXPECT_EQ(shard_count(1, 16), 1);
  EXPECT_EQ(shard_count(15, 16), 1);
  EXPECT_EQ(shard_count(16, 16), 1);
  EXPECT_EQ(shard_count(32, 16), 2);
  EXPECT_EQ(shard_count(33, 16), 2);
  EXPECT_EQ(shard_count(16 * kMaxKernelShards, 16), kMaxKernelShards);
  EXPECT_EQ(shard_count(1 << 20, 16), kMaxKernelShards);  // clamped
}

TEST(ShardedKernels, ShardRangesPartitionTheWork) {
  using detail::shard_count;
  using detail::shard_range;
  for (i64 items : {1, 16, 33, 100, 4097}) {
    const int n = shard_count(items, 16);
    i64 covered = 0;
    for (int s = 0; s < n; ++s) {
      const auto r = shard_range(items, n, s);
      EXPECT_EQ(r.begin, covered) << "gap before shard " << s;
      EXPECT_LE(r.end - r.begin, (items + n - 1) / n + 1);
      covered = r.end;
    }
    EXPECT_EQ(covered, items);
  }
}

// ---------------------------------------------------------------------
// Race coverage (runs under the tsan preset): a multi-shard matrix at
// jobs 4, checked against the serial run.
// ---------------------------------------------------------------------

TEST(ShardedKernels, CountingRunIsIdenticalAtAnyJobCount) {
  const Csr A = gen_uniform(2048, 2048, 0.002, 7);
  const DenseMatrix B = random_b(2048, 32, 11);
  for (KernelKind kind : {KernelKind::kCsrCStationaryRowWarp,
                          KernelKind::kTiledDcsrBStationary,
                          KernelKind::kTiledDcsrOnline}) {
    SpmmConfig cfg;
    cfg.jobs = 1;
    const SpmmResult serial = run_one_shot(kind, A, B, cfg);
    cfg.jobs = 4;
    const SpmmResult parallel = run_one_shot(kind, A, B, cfg);
    SCOPED_TRACE(kernel_name(kind));
    expect_identical(serial, parallel);
  }
}

// ---------------------------------------------------------------------
// The exhaustive sweep: every kernel family, both memory modes, on a
// matrix large enough that every family's work axis splits into
// multiple shards (4096 cols → 64 strips → 4 shards; 4096 rows → 128
// warp groups → 4 shards; ~4k dense rows → 4 merge shards).
// ---------------------------------------------------------------------

const Csr& sweep_matrix() {
  static const Csr A = gen_uniform(4096, 4096, 0.002, 13);
  return A;
}

const DenseMatrix& sweep_b() {
  static const DenseMatrix B = random_b(4096, 32, 17);
  return B;
}

class KernelShardingSweep : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelShardingSweep, CountingModeIdenticalAcrossJobs) {
  SpmmConfig cfg;
  cfg.jobs = 1;
  const SpmmResult serial = run_one_shot(GetParam(), sweep_matrix(), sweep_b(), cfg);
  cfg.jobs = 4;
  const SpmmResult parallel = run_one_shot(GetParam(), sweep_matrix(), sweep_b(), cfg);
  expect_identical(serial, parallel);
}

TEST_P(KernelShardingSweep, CacheSimModeIdenticalAcrossJobs) {
  SpmmConfig cfg = evaluation_config(4096, 32);
  cfg.jobs = 1;
  const SpmmResult serial = run_one_shot(GetParam(), sweep_matrix(), sweep_b(), cfg);
  cfg.jobs = 4;
  const SpmmResult parallel = run_one_shot(GetParam(), sweep_matrix(), sweep_b(), cfg);
  expect_identical(serial, parallel);
}

TEST_P(KernelShardingSweep, TraversalOrderDoesNotChangeC) {
  // Per C element the contribution order is strips-ascending under
  // either traversal, so even the B-stationary families produce
  // bit-identical output (the traversal changes locality, not math).
  SpmmConfig cfg;
  cfg.jobs = 2;
  cfg.traversal = TraversalOrder::kColumnMajor;
  const SpmmResult col = run_one_shot(GetParam(), sweep_matrix(), sweep_b(), cfg);
  cfg.traversal = TraversalOrder::kRowMajor;
  const SpmmResult row = run_one_shot(GetParam(), sweep_matrix(), sweep_b(), cfg);
  expect_same_bits(col, row);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelShardingSweep, ::testing::ValuesIn(kAllKernels),
                         [](const ::testing::TestParamInfo<KernelKind>& param) {
                           return std::string(kernel_name(param.param));
                         });

}  // namespace
}  // namespace nmdt
