// GPU architecture configuration (the paper's HW baseline, Sec. 5.1).
//
// Presets model the evaluation GPU (GV100: 80 SMs @1.53 GHz, 96 KB
// shared memory/SM, 6 MiB L2, 16 GB HBM2 on 64 pseudo channels of
// 13.6 GB/s = 870 GB/s aggregate, 815 mm², 250 W) and the TU116 scaling
// point of Sec. 5.3 (284 mm², 24 GDDR6 channels × 12 GB/s = 288 GB/s).
// Every model in gpusim/, transform/ and kernels/ is parameterized by
// this struct, so alternative machines are one preset away.
#pragma once

#include <string>

#include "util/types.hpp"

namespace nmdt {

/// Most L2 ways a set may have: the L2 model keeps each set's
/// most-recently-used way index in one byte.
inline constexpr int kMaxL2Ways = 256;

struct ArchConfig {
  std::string name = "GV100";

  // Compute.
  int num_sms = 80;
  int warp_size = 32;
  int issue_slots_per_sm = 4;      ///< warp instructions issued /cycle/SM
  /// Fraction of issue slots filled in steady state (dependency and
  /// pipeline stalls — NVPROF's "SM" stall bucket in Fig. 2 — keep real
  /// kernels well below peak issue).
  double issue_efficiency = 0.3;
  double core_clock_ghz = 1.53;
  double peak_fp32_tflops = 15.7;
  i64 shared_mem_per_sm = 96 * 1024;

  // L2 (sectored, NVIDIA-style: 128 B lines of 4 × 32 B sectors; misses
  // fill only the touched sector).  Line and sector sizes are powers of
  // two; the set count need not be.
  i64 l2_bytes = 6144 * 1024;
  int l2_ways = 16;
  int l2_line_bytes = 128;
  int l2_sector_bytes = 32;
  /// Aggregate L2 service bandwidth.  Atomics resolve at the LLC
  /// (partial C tiles cache there, Sec. 3.1.1) but consume
  /// atomic_cost_multiplier× of this bandwidth — the "atomic bandwidth"
  /// that limits B-stationary on scattered matrices.
  double l2_bandwidth_gbps = 2000.0;

  // Memory system.
  int fb_partitions = 8;           ///< frame-buffer partitions (MC units)
  int pseudo_channels = 64;        ///< HBM2 pseudo channels (engine sites)
  double bw_per_channel_gbps = 13.6;
  double dram_cl_ns = 15.0;        ///< column-access latency (Sec. 5.3)
  i64 interleave_bytes = 256;      ///< address interleave granule
  double atomic_cost_multiplier = 2.0;  ///< Table 1: atomic ≈ 2× access
  // Bank/row-buffer timing (gpusim/dram.hpp; cache-sim mode only).  Bank
  // count and row size are powers of two.
  int dram_banks_per_channel = 16;
  i64 dram_row_bytes = 2048;
  double dram_row_miss_penalty_ns = 26.0;  ///< tRP + tRCD
  double dram_bank_parallelism = 4.0;      ///< activate overlap factor

  // Crossbar between L2/MC partitions and SMs.  Large on-die bandwidth
  // the online engine exploits for tile delivery (Sec. 7).
  double xbar_bandwidth_gbps = 2500.0;

  // Physical envelope (Sec. 5.3 accounting).
  double die_area_mm2 = 815.0;
  double tdp_watts = 250.0;
  double idle_watts = 23.0;

  // Kernel launch overhead charged once per kernel grid.
  double launch_overhead_ns = 2000.0;

  // Latency-bound regime parameters: a warp visiting a work item (a
  // row, a tile) pays a dependent-load chain of ~DRAM latency before it
  // can retire, and each serial inner-loop iteration adds a pipelined
  // step.  With mostly-empty rows (Fig. 5/6) a CSR kernel's runtime is
  // set by these visits rather than by bandwidth — the regime DCSR's
  // densification removes.
  double visit_latency_ns = 400.0;   ///< dependent-load chain per warp visit
  double iter_latency_ns = 8.0;      ///< pipelined serial loop iteration
  int max_warps_per_sm = 64;         ///< resident warps hiding that latency

  double total_bandwidth_gbps() const { return pseudo_channels * bw_per_channel_gbps; }

  /// Throw ConfigError on inconsistent settings.
  void validate() const;

  static ArchConfig gv100();
  static ArchConfig tu116();
  /// Post-paper scaling point: an A100-class machine (HBM2e, 1555 GB/s
  /// over 80 pseudo channels).  The engine cost model scales with the
  /// channel count exactly as the paper argues ("the cost of the
  /// transform engine is proportional to the memory bandwidth").
  static ArchConfig a100();
};

}  // namespace nmdt
