// Kernel correctness and model-behaviour tests: every SpMM variant must
// reproduce the dense reference bit-for-bit-ish (FP32 accumulation
// order differs, so a tolerance scaled to nnz/row is used), and the
// simulator counters must show the paper's qualitative effects
// (empty-row divergence, atomic traffic, metadata traffic ordering).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/executor.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

SpmmConfig small_config() {
  SpmmConfig cfg;
  cfg.tiling = {64, 64};
  return cfg;
}

double tolerance_for(const Csr& A, index_t K) {
  (void)K;
  // FP32 accumulation error grows with the number of addends per output.
  double max_row = 1.0;
  for (index_t r = 0; r < A.rows; ++r) {
    max_row = std::max(max_row, static_cast<double>(A.row_nnz(r)));
  }
  return 1e-5 * max_row;
}

// ---------------------------------------------------------------------
// Correctness across kernels × matrix families (parameterized).
// ---------------------------------------------------------------------

struct CorrectnessCase {
  const char* name;
  Csr matrix;
  index_t K;
};

std::vector<CorrectnessCase> correctness_cases() {
  std::vector<CorrectnessCase> cases;
  cases.push_back({"uniform", gen_uniform(300, 300, 0.01, 1), 64});
  cases.push_back({"powerlaw_rows", gen_powerlaw_rows(256, 256, 0.01, 1.2, 2), 64});
  cases.push_back({"powerlaw_cols", gen_powerlaw_cols(256, 256, 0.01, 1.2, 3), 64});
  cases.push_back({"rmat", gen_rmat(8, 8.0, 0.57, 0.19, 0.19, 0.05, 4), 64});
  cases.push_back({"banded", gen_banded(200, 6, 0.5, 5), 64});
  cases.push_back({"blocks", gen_block_clustered(256, 8, 0.1, 0.001, 6), 64});
  cases.push_back({"stencil", gen_stencil_5pt(16, 16), 64});
  cases.push_back({"rect_tall", gen_uniform(400, 100, 0.02, 7), 64});
  cases.push_back({"rect_wide", gen_uniform(100, 400, 0.02, 8), 64});
  cases.push_back({"k_not_multiple_of_32", gen_uniform(128, 128, 0.02, 9), 50});
  cases.push_back({"k_less_than_warp", gen_uniform(128, 128, 0.02, 10), 8});
  cases.push_back({"k_several_btiles", gen_uniform(128, 128, 0.02, 11), 130});
  cases.push_back({"odd_dims", gen_uniform(65, 129, 0.03, 12), 64});
  return cases;
}

class KernelCorrectness
    : public testing::TestWithParam<std::tuple<usize, KernelKind>> {};

TEST_P(KernelCorrectness, MatchesDenseReference) {
  const auto [case_idx, kind] = GetParam();
  static const std::vector<CorrectnessCase> cases = correctness_cases();
  const CorrectnessCase& c = cases[case_idx];

  Rng rng(42);
  DenseMatrix B(c.matrix.cols, c.K);
  B.randomize(rng);
  const DenseMatrix ref = spmm_reference(c.matrix, B);
  const SpmmResult res = run_one_shot(kind, c.matrix, B, small_config());
  EXPECT_LE(res.C.max_abs_diff(ref), tolerance_for(c.matrix, c.K))
      << "kernel " << kernel_name(kind) << " on case " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllCases, KernelCorrectness,
    testing::Combine(testing::Range<usize>(0, 13), testing::ValuesIn(kAllKernels)),
    [](const testing::TestParamInfo<std::tuple<usize, KernelKind>>& param_info) {
      static const std::vector<CorrectnessCase> cases = correctness_cases();
      return std::string(cases[std::get<0>(param_info.param)].name) + "_" +
             kernel_name(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------
// Model-behaviour properties.
// ---------------------------------------------------------------------

TEST(KernelModel, EmptyRowsInflateInactiveSlotsForTiledCsr) {
  // Highly sparse matrix: tiled CSR suffers one-active-lane skips per
  // empty tile row; tiled DCSR does not (the Fig. 7 claim).
  const Csr A = gen_uniform(2048, 2048, 0.0005, 77);
  Rng rng(1);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const SpmmResult csr = run_one_shot(KernelKind::kTiledCsrBStationary, A, B, cfg);
  const SpmmResult dcsr = run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg);
  EXPECT_GT(csr.counters.inactive_fraction(), 0.3);
  EXPECT_LT(dcsr.counters.lane_slots_inactive, csr.counters.lane_slots_inactive / 4)
      << "DCSR should eliminate the bulk of inactive executions";
}

TEST(KernelModel, TiledCsrReadsMoreMetadataThanTiledDcsr) {
  const Csr A = gen_uniform(1024, 1024, 0.001, 78);
  Rng rng(2);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const i64 csr_bytes_read =
      run_one_shot(KernelKind::kTiledCsrBStationary, A, B, cfg).mem.total_dram_bytes();
  const i64 dcsr_bytes_read =
      run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg).mem.total_dram_bytes();
  EXPECT_GT(csr_bytes_read, dcsr_bytes_read);
}

TEST(KernelModel, OnlineConversionMovesLessDramThanOfflineTiledDcsr) {
  // The online kernel reads compact CSC through the engines instead of
  // the 1.3-1.4x tiled-DCSR image (Fig. 9 -> Sec. 4 motivation).
  const Csr A = gen_powerlaw_cols(1024, 1024, 0.005, 1.0, 79);
  Rng rng(3);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const SpmmResult online = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
  const SpmmResult offline = run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg);
  EXPECT_LT(online.mem.total_dram_bytes(), offline.mem.total_dram_bytes());
  EXPECT_EQ(offline.engine.elements, 0u);
  EXPECT_GT(online.engine.elements, 0u);
  EXPECT_DOUBLE_EQ(offline.offline_prep_ns > 0.0, true);
  EXPECT_DOUBLE_EQ(online.offline_prep_ns, 0.0);
}

TEST(KernelModel, BStationaryPaysAtomics) {
  const Csr A = gen_uniform(512, 512, 0.01, 80);
  Rng rng(4);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const SpmmResult b_stat = run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg);
  const SpmmResult c_stat = run_one_shot(KernelKind::kDcsrCStationary, A, B, cfg);
  EXPECT_GT(b_stat.counters.atomic_updates, 0u);
  EXPECT_EQ(c_stat.counters.atomic_updates, 0u);
  i64 b_atomic_bytes = 0;
  for (const auto& ch : b_stat.mem.channels) b_atomic_bytes += ch.atomic_bytes;
  EXPECT_GT(b_atomic_bytes, 0);

  // Strip-skip pin: non-zeros only in vertical strips 0, 3 and 7 of 512
  // columns, so the strip kernels skip five of eight strips.  Literal
  // KernelCounters and MemStats totals per kernel and memory mode.
  Coo coo;
  coo.rows = 256;
  coo.cols = 512;
  Rng vals(41);
  for (index_t r = 0; r < coo.rows; ++r) {
    for (index_t s : {0, 3, 7}) {
      for (index_t col = s * 64; col < (s + 1) * 64; ++col) {
        if (vals.chance(0.06)) coo.push(r, col, static_cast<value_t>(vals.uniform(-1, 1)));
      }
    }
  }
  const Csr strips = csr_from_coo(coo);
  DenseMatrix Bs(strips.cols, 32);
  Bs.randomize(rng);
  auto totals = [](const SpmmResult& r) {
    const KernelCounters& k = r.counters;
    return std::vector<i64>{static_cast<i64>(k.total_instr()),
                            static_cast<i64>(k.lane_slots_active),
                            static_cast<i64>(k.lane_slots_inactive),
                            static_cast<i64>(k.warp_visits),
                            static_cast<i64>(k.serial_iterations),
                            static_cast<i64>(k.atomic_updates),
                            static_cast<i64>(k.max_chain_iters),
                            r.mem.total_dram_bytes(),
                            r.mem.l2_service_bytes,
                            r.mem.atomic_rmw_bytes,
                            static_cast<i64>(r.mem.l2.accesses),
                            static_cast<i64>(r.mem.l2.sector_hits)};
  };
  struct Pin {
    KernelKind kind;
    MemMode mode;
    std::vector<i64> want;
  };
  const Pin pins[] = {
      {KernelKind::kTiledCsrBStationary, MemMode::kCounting,
       {10479, 334212, 1116, 780, 2913, 744, 11, 242048, 146816, 95232, 0, 0}},
      {KernelKind::kTiledCsrBStationary, MemMode::kCacheSim,
       {10479, 334212, 1116, 780, 2913, 744, 11, 116608, 146816, 95232, 4588, 1968}},
      {KernelKind::kTiledDcsrBStationary, MemMode::kCounting,
       {10468, 334908, 68, 756, 2913, 744, 11, 244960, 149728, 95232, 0, 0}},
      {KernelKind::kTiledDcsrBStationary, MemMode::kCacheSim,
       {10468, 334908, 68, 756, 2913, 744, 11, 119520, 149728, 95232, 4679, 1968}},
      {KernelKind::kAStationary, MemMode::kCounting,
       {6690, 212344, 1736, 840, 2913, 744, 11, 596096, 500864, 95232, 0, 0}},
      {KernelKind::kAStationary, MemMode::kCacheSim,
       {6690, 212344, 1736, 840, 2913, 744, 11, 121760, 500864, 95232, 15652, 12871}},
      {KernelKind::kHongHybrid, MemMode::kCounting,
       {10837, 344771, 2013, 667, 2913, 399, 11, 295520, 244448, 51072, 0, 0}},
      {KernelKind::kHongHybrid, MemMode::kCacheSim,
       {10837, 344771, 2013, 667, 2913, 399, 11, 160288, 244448, 51072, 7639, 3526}},
  };
  for (const Pin& pin : pins) {
    SpmmConfig mode_cfg = cfg;
    mode_cfg.mem_mode = pin.mode;
    const SpmmResult res = run_one_shot(pin.kind, strips, Bs, mode_cfg);
    EXPECT_EQ(totals(res), pin.want)
        << kernel_name(pin.kind) << (pin.mode == MemMode::kCacheSim ? " cachesim" : " counting");
    EXPECT_GT(res.counters.atomic_updates, 0u);
  }
}

TEST(KernelModel, CStationaryRereadsBPerNonZero) {
  // B traffic for C-stationary ≈ nnz*K*4 (Table 1); B-stationary loads
  // each B tile once ≈ n*K*4.  At density 1e-2 and n=512, nnz/col ≈ 5,
  // so C-stationary must move ~5x more B bytes.
  const Csr A = gen_uniform(512, 512, 0.01, 81);
  Rng rng(5);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const SpmmResult c_stat = run_one_shot(KernelKind::kDcsrCStationary, A, B, cfg);
  const SpmmResult b_stat = run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg);
  i64 c_reads = 0, b_reads = 0;
  for (const auto& ch : c_stat.mem.channels) c_reads += ch.read_bytes;
  for (const auto& ch : b_stat.mem.channels) b_reads += ch.read_bytes;
  EXPECT_GT(c_reads, 2 * b_reads);
}

TEST(KernelModel, RowThreadSuffersDivergenceOnSkewedRows) {
  const Csr A = gen_powerlaw_rows(512, 512, 0.01, 1.4, 82);
  Rng rng(6);
  DenseMatrix B(A.cols, 32);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const SpmmResult warp = run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cfg);
  const SpmmResult thread = run_one_shot(KernelKind::kCsrCStationaryRowThread, A, B, cfg);
  EXPECT_GT(thread.counters.inactive_fraction(), warp.counters.inactive_fraction());
}

TEST(KernelModel, AStationaryMovesMostBBytes) {
  const Csr A = gen_uniform(512, 512, 0.01, 83);
  Rng rng(7);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  i64 a_stat = 0, b_stat = 0;
  for (const auto& ch : run_one_shot(KernelKind::kAStationary, A, B, cfg).mem.channels) {
    a_stat += ch.read_bytes;
  }
  for (const auto& ch :
       run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg).mem.channels) {
    b_stat += ch.read_bytes;
  }
  EXPECT_GT(a_stat, b_stat);
}

TEST(KernelModel, StallBreakdownIsMemoryDominatedAndSumsToOne) {
  // Large enough that launch overhead is negligible (tiny grids are
  // launch-bound on real GPUs too, which is why the paper filters out
  // matrices under 4k rows).
  const Csr A = gen_uniform(4096, 4096, 0.005, 84);
  Rng rng(8);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmResult res =
      run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, small_config());
  const auto& t = res.timing;
  EXPECT_NEAR(t.frac_memory + t.frac_sm + t.frac_other, 1.0, 1e-9);
  EXPECT_GT(t.frac_memory, 0.5) << "SpMM should be memory-bound (Fig. 2)";
}

TEST(KernelModel, FlopsMatchTwoNnzK) {
  const Csr A = gen_uniform(256, 256, 0.01, 85);
  Rng rng(9);
  DenseMatrix B(A.cols, 48);
  B.randomize(rng);
  for (KernelKind kind : kAllKernels) {
    const SpmmResult res = run_one_shot(kind, A, B, small_config());
    EXPECT_EQ(res.counters.flops, static_cast<u64>(2 * A.nnz() * 48))
        << kernel_name(kind);
  }
}

TEST(KernelModel, CacheSimModeReducesDramTraffic) {
  const Csr A = gen_uniform(512, 512, 0.01, 86);
  Rng rng(10);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  SpmmConfig counting = small_config();
  SpmmConfig cached = small_config();
  cached.mem_mode = MemMode::kCacheSim;
  const SpmmResult uncached =
      run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, counting);
  const i64 uncached_bytes = uncached.mem.total_dram_bytes();
  const SpmmResult cache_res =
      run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cached);
  EXPECT_LT(cache_res.mem.total_dram_bytes(), uncached_bytes)
      << "L2 hits on reused B rows must cut DRAM traffic";
  EXPECT_GT(cache_res.mem.l2.hit_rate(), 0.1);
}

TEST(KernelModel, ShapeMismatchThrows) {
  const Csr A = gen_uniform(64, 64, 0.05, 87);
  DenseMatrix B(32, 16);
  EXPECT_THROW(run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, small_config()),
               FormatError);
}

TEST(KernelModel, IncompleteOperandsThrowConfigError) {
  // The kernel entry takes complete planned operands only.  A missing
  // artifact, a tiled artifact cut under another TilingSpec, or a
  // precision other than the operands' is a typed ConfigError before
  // any work — never a local conversion.
  using Ops = SpmmOperandsT<value_t>;
  const Csr A = gen_powerlaw_rows(128, 128, 0.05, 1.2, 31);
  Rng rng(5);
  DenseMatrix B(A.cols, 16);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();  // tiling {64, 64}
  SpmmConfig cfg32 = cfg;
  cfg32.tiling = {32, 32};
  const auto plan = build_plan(A, plan_options_for(cfg));
  const auto plan32 = build_plan(A, plan_options_for(cfg32));
  const Ops tiled_dcsr32 = plan32->operands_for<value_t>(KernelKind::kTiledDcsrBStationary);
  const Ops tiled_csr32 = plan32->operands_for<value_t>(KernelKind::kTiledCsrBStationary);

  // Bundles each missing one artifact the kernel reads (CSR itself for
  // the kernels that read nothing else).
  auto incomplete = [](KernelKind kind, const Ops& full) {
    std::vector<Ops> out;
    auto without = [&](auto member) {
      Ops ops = full;
      ops.*member = nullptr;
      out.push_back(ops);
    };
    switch (kind) {
      case KernelKind::kCsrCStationaryRowWarp:
      case KernelKind::kCsrCStationaryRowThread:
      case KernelKind::kHongHybrid: without(&Ops::csr); break;
      case KernelKind::kDcsrCStationary:
      case KernelKind::kMergeCStationary:
        without(&Ops::csr);
        without(&Ops::dcsr);
        break;
      case KernelKind::kTiledCsrBStationary: without(&Ops::tiled_csr); break;
      case KernelKind::kTiledDcsrBStationary: without(&Ops::tiled_dcsr); break;
      case KernelKind::kTiledDcsrOnline: without(&Ops::csc); break;
      case KernelKind::kAStationary: without(&Ops::tiled_csr); break;
    }
    return out;
  };
  for (KernelKind kind : kAllKernels) {
    SCOPED_TRACE(kernel_name(kind));
    const Ops full = plan->operands_for<value_t>(kind);
    // Bundles carrying one artifact cut under {32, 32} while cfg.tiling
    // is {64, 64}.
    std::vector<Ops> mistiled(2, full);
    mistiled[0].tiled_dcsr = tiled_dcsr32.tiled_dcsr;
    mistiled[1].tiled_csr = tiled_csr32.tiled_csr;
    // The complete bundle runs: each throw below comes from the defect.
    EXPECT_NO_THROW(run_spmm(kind, full, B, cfg));
    const std::vector<Ops> missing = incomplete(kind, full);
    ASSERT_FALSE(missing.empty());
    for (const Ops& ops : missing) {
      EXPECT_THROW(run_spmm(kind, ops, B, cfg), ConfigError);
    }
    for (const Ops& ops : mistiled) {
      EXPECT_THROW(run_spmm(kind, ops, B, cfg), ConfigError);
    }
    for (Precision p : {Precision::kF64, Precision::kBf16}) {
      SpmmConfig other = cfg;
      other.precision = p;
      EXPECT_THROW(run_spmm(kind, full, B, other), ConfigError);
    }
  }
}

TEST(KernelModel, OnlineStripWiderThanEngineLanesIsAConfigError) {
  // Each strip column needs an engine lane: a wider strip is a bad
  // configuration (ConfigError, exit 4), rejected before any work.
  const Csr A = gen_uniform(128, 256, 0.02, 32);
  DenseMatrix B(A.cols, 8);
  SpmmConfig cfg = small_config();
  cfg.tiling = {128, 64};
  EXPECT_THROW(run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg), ConfigError);
  cfg.tiling = {64, 64};
  cfg.engine_hw.lanes = 32;
  EXPECT_THROW(run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg), ConfigError);
  cfg.tiling = {32, 64};
  EXPECT_NO_THROW(run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg));
}

TEST(KernelModel, KernelNamesAreDistinct) {
  std::set<std::string> names;
  for (KernelKind k : kAllKernels) {
    names.insert(kernel_name(k));
    EXPECT_EQ(parse_kernel_kind(kernel_name(k)), k);
  }
  EXPECT_EQ(names.size(), std::size(kAllKernels));
  EXPECT_EQ(parse_kernel_kind("auto"), std::nullopt);
}

TEST(KernelModel, MergeBasedBoundsCriticalChain) {
  const Csr A = gen_powerlaw_rows(1024, 1024, 0.01, 2.0, 90);
  Rng rng(11);
  DenseMatrix B(A.cols, 32);
  B.randomize(rng);
  const SpmmConfig cfg = small_config();
  const SpmmResult row_warp = run_one_shot(KernelKind::kDcsrCStationary, A, B, cfg);
  const SpmmResult merge = run_one_shot(KernelKind::kMergeCStationary, A, B, cfg);
  // Spans hold at most the merge kernel's 256-non-zero chunk.
  EXPECT_LE(merge.counters.max_chain_iters, 256u);
  EXPECT_GT(row_warp.counters.max_chain_iters, 256u)
      << "skewed matrix must have a heavy row to make this test meaningful";
  // Split rows pay atomic fixups; whole rows do not.
  EXPECT_GT(merge.counters.atomic_updates, 0u);
}

TEST(KernelModel, TraversalOrdersAgreeNumerically) {
  const Csr A = gen_uniform(256, 256, 0.02, 92);
  Rng rng(12);
  DenseMatrix B(A.cols, 160);  // several B column blocks
  B.randomize(rng);
  SpmmConfig col = small_config();
  col.traversal = TraversalOrder::kColumnMajor;
  SpmmConfig row = small_config();
  row.traversal = TraversalOrder::kRowMajor;
  for (KernelKind kind : {KernelKind::kTiledDcsrBStationary, KernelKind::kTiledDcsrOnline,
                          KernelKind::kTiledCsrBStationary}) {
    const DenseMatrix c_col = run_one_shot(kind, A, B, col).C;
    const DenseMatrix c_row = run_one_shot(kind, A, B, row).C;
    EXPECT_LE(c_col.max_abs_diff(c_row), 1e-5) << kernel_name(kind);
  }
}

TEST(KernelModel, RowMajorTraversalThrashesCForUniform) {
  // Sec. 3.1.3: "touching entire C multiple times is rather expensive"
  // — visible as extra DRAM traffic under cache simulation.
  const Csr A = gen_uniform(2048, 2048, 0.005, 93);
  Rng rng(13);
  DenseMatrix B(A.cols, 256);
  B.randomize(rng);
  SpmmConfig col = evaluation_config(A.rows, 256);
  SpmmConfig row = col;
  row.traversal = TraversalOrder::kRowMajor;
  const i64 col_bytes =
      run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, col).mem.total_dram_bytes();
  const i64 row_bytes =
      run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, row).mem.total_dram_bytes();
  EXPECT_GT(row_bytes, col_bytes);
}

TEST(KernelModel, HongHybridChargesPreprocessing) {
  const Csr A = gen_block_clustered(512, 8, 0.1, 0.001, 94);
  Rng rng(14);
  DenseMatrix B(A.cols, 32);
  B.randomize(rng);
  const SpmmResult r = run_one_shot(KernelKind::kHongHybrid, A, B, small_config());
  EXPECT_GT(r.offline_prep_ns, 0.0);
  EXPECT_EQ(r.engine.elements, 0u) << "offline hybrid never uses the engine";
}

TEST(KernelModel, HongHybridDegeneratesGracefully) {
  // All-light (uniform hypersparse) and all-heavy (dense band) inputs
  // exercise the single-phase paths.  A (strip, row) segment is heavy
  // from 4 non-zeros on.
  Rng rng(15);
  const Csr light = gen_uniform(256, 256, 0.001, 95);
  DenseMatrix B1(light.cols, 32);
  B1.randomize(rng);
  const SpmmConfig cfg = small_config();
  for (index_t r = 0; r < light.rows; ++r) {
    ASSERT_LT(light.row_nnz(r), 4) << "every segment must be light";
  }
  EXPECT_LE(run_one_shot(KernelKind::kHongHybrid, light, B1, cfg)
                .C.max_abs_diff(spmm_reference(light, B1)),
            1e-4);
  // A dense block-diagonal band of 64-wide blocks, aligned with the
  // strips: every segment holds 64 non-zeros.
  Coo band;
  band.rows = band.cols = 256;
  for (index_t r = 0; r < band.rows; ++r) {
    for (index_t c = r / 64 * 64; c < r / 64 * 64 + 64; ++c) {
      band.push(r, c, static_cast<value_t>(rng.uniform(-1, 1)));
    }
  }
  const Csr heavy = csr_from_coo(band);
  DenseMatrix B2(heavy.cols, 32);
  B2.randomize(rng);
  EXPECT_LE(run_one_shot(KernelKind::kHongHybrid, heavy, B2, cfg)
                .C.max_abs_diff(spmm_reference(heavy, B2)),
            1e-4);
}

TEST(KernelModel, OnlineBeatsHongHybridWithPrepOnClusteredInput) {
  // The Sec. 7 comparison in one assertion.
  const Csr A = gen_block_clustered(2048, 16, 0.05, 1e-4, 98);
  Rng rng(16);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = evaluation_config(A.rows, 64);
  const SpmmResult hong = run_one_shot(KernelKind::kHongHybrid, A, B, cfg);
  const SpmmResult online = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
  EXPECT_LT(online.timing.total_ns,
            hong.timing.total_ns + hong.offline_prep_ns);
}

TEST(KernelModel, EvaluationConfigScalesL2) {
  const SpmmConfig small = evaluation_config(1024, 64);
  const SpmmConfig big = evaluation_config(16384, 64);
  EXPECT_LT(small.arch.l2_bytes, big.arch.l2_bytes);
  EXPECT_LE(big.arch.l2_bytes, 6144 * 1024);
  EXPECT_EQ(small.mem_mode, MemMode::kCacheSim);
  small.arch.validate();
  big.arch.validate();
  EXPECT_THROW(evaluation_config(0, 64), ConfigError);
}

}  // namespace
}  // namespace nmdt
