// DRAM bank/row-buffer model tests and its integration into the memory
// system and timing.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "gpusim/dram.hpp"
#include "gpusim/memory_system.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(Dram, SequentialAccessHitsRowBuffer) {
  DramChannelSim ch(ArchConfig::gv100());
  ChannelStats st;
  // Walk one 2 KiB row in 32 B sectors: 1 activate, then hits.
  for (u64 a = 0; a < 2048; a += 32) ch.access(a, 32, st);
  EXPECT_EQ(st.row_misses, 1u);
  EXPECT_EQ(st.row_hits, 63u);
}

TEST(Dram, RowStrideMissesEveryTime) {
  ArchConfig arch = ArchConfig::gv100();
  DramChannelSim ch(arch);
  ChannelStats st;
  // Jump a full bank rotation each access: same bank, new row.
  const u64 stride = static_cast<u64>(arch.dram_row_bytes) * arch.dram_banks_per_channel;
  for (int i = 0; i < 64; ++i) ch.access(static_cast<u64>(i) * stride, 32, st);
  EXPECT_EQ(st.row_misses, 64u);
  EXPECT_EQ(st.row_hits, 0u);
}

TEST(Dram, MissPenaltyInflatesBusyTime) {
  const ArchConfig arch = ArchConfig::gv100();
  DramChannelSim seq(arch), random(arch);
  ChannelStats seq_st, random_st;
  for (u64 a = 0; a < 2048; a += 32) seq.access(a, 32, seq_st);
  const u64 stride = static_cast<u64>(arch.dram_row_bytes) * arch.dram_banks_per_channel;
  for (int i = 0; i < 64; ++i) random.access(static_cast<u64>(i) * stride, 32, random_st);
  EXPECT_GT(random_st.busy_ns, 2.0 * seq_st.busy_ns)
      << "row-missing traffic must be markedly slower at equal bytes";
}

TEST(Dram, StreamIsPureTransferTime) {
  const ArchConfig arch = ArchConfig::gv100();
  const DramChannelSim ch(arch);
  ChannelStats st;
  ch.stream(13600, st);  // bytes at 13.6 B/ns
  EXPECT_NEAR(st.busy_ns, 1000.0, 1e-6);
  EXPECT_EQ(st.row_misses, 0u);
}

TEST(Dram, BankParallelismScalesPenalty) {
  ArchConfig arch = ArchConfig::gv100();
  arch.dram_bank_parallelism = 1.0;
  DramChannelSim serial(arch);
  arch.dram_bank_parallelism = 8.0;
  DramChannelSim parallel(arch);
  ChannelStats serial_st, parallel_st;
  const u64 stride = static_cast<u64>(arch.dram_row_bytes) * arch.dram_banks_per_channel;
  for (int i = 0; i < 16; ++i) {
    serial.access(static_cast<u64>(i) * stride, 32, serial_st);
    parallel.access(static_cast<u64>(i) * stride, 32, parallel_st);
  }
  EXPECT_GT(serial_st.busy_ns, parallel_st.busy_ns);
}

TEST(Dram, MemorySystemTracksBusyInCacheMode) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCacheSim);
  const u64 base = mem.allocate(1 << 20, "x");
  // Touch far-apart lines so the L2 misses and DRAM sees the accesses.
  for (int i = 0; i < 100; ++i) {
    mem.warp_load(base + static_cast<u64>(i) * 128 * 1024, 32);
  }
  EXPECT_GT(mem.stats().max_channel_service_ns(13.6), 0.0);
  double busy = 0.0;
  for (const auto& ch : mem.stats().channels) busy += ch.busy_ns;
  EXPECT_GT(busy, 0.0);
}

TEST(Dram, CountingModeHasNoBankModel) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.warp_load(mem.allocate(4096, "x"), 4096);
  for (const auto& ch : mem.stats().channels) {
    EXPECT_DOUBLE_EQ(ch.busy_ns, 0.0);
    EXPECT_EQ(ch.row_misses, 0u);
  }
  EXPECT_DOUBLE_EQ(mem.stats().dram_row_hit_rate(), 1.0);
}

TEST(Dram, EngineStreamsAreRowFriendlyInKernels) {
  // End to end: the online kernel's engine reads are streams (no row
  // misses from the engine side), while the SM-side scattered accesses
  // miss — overall row hit rate for the online kernel should beat the
  // baseline's on a scattered matrix.
  const Csr A = gen_powerlaw_rows(2048, 2048, 0.005, 1.4, 5);
  Rng rng(1);
  DenseMatrix B(A.cols, 64);
  B.randomize(rng);
  const SpmmConfig cfg = evaluation_config(A.rows, 64);
  const SpmmResult base = run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cfg);
  const SpmmResult online = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
  EXPECT_GT(online.mem.dram_row_hit_rate(), base.mem.dram_row_hit_rate());
}

TEST(Dram, RejectsBadGeometry) {
  ArchConfig arch = ArchConfig::gv100();
  arch.dram_banks_per_channel = 0;
  EXPECT_THROW(DramChannelSim{arch}, ConfigError);
  arch = ArchConfig::gv100();
  arch.dram_row_bytes = 3000;  // the row split is a shift
  EXPECT_THROW(DramChannelSim{arch}, ConfigError);
}

}  // namespace
}  // namespace nmdt
