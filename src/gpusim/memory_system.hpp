// The GPU memory system model: device allocations, warp request
// coalescing, optional L2 simulation, and per-pseudo-channel DRAM
// traffic accounting.
//
// Warp loads, stores and atomics all enter one request body; the mode
// alone picks its path (DESIGN.md Sec. 5):
//  * kCounting — requests bypass the L2 and count straight into DRAM
//    channel totals, booked per interleave granule.  Kernels already
//    encode shared-memory reuse explicitly, so this mode measures
//    *compulsory* traffic, matching the Table 1 analytical model.
//    Cheap enough for thousand-matrix suite sweeps.
//  * kCacheSim — a request is split into the 128 B lines it touches and
//    each line is looked up once in the sectored L2; only sector fills
//    and dirty writebacks reach DRAM and its bank model, booked in the
//    order one access per 32 B sector would book them.  Used by
//    evaluation_config, so by every figure, suite sweep and served
//    request.
// The request kind decides only whether the L2 access writes, whether
// a fill is booked as a read or an atomic, and whether the LLC's
// atomic RMW bytes grow.
//
// The L2 and the bank model book straight into this system's MemStats
// (`l2`, and each channel's busy_ns and row counters), so stats() is
// always current and merge() is a plain sum: requests issued after a
// merge add to the merged totals.
//
// Atomic read-modify-writes are charged atomic_cost_multiplier× at the
// channel, the paper's "atomic bandwidth = 2× memory access" model.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/dram.hpp"
#include "gpusim/interleave.hpp"

namespace nmdt {

enum class MemMode { kCounting, kCacheSim };

struct MemStats {
  std::vector<ChannelStats> channels;
  CacheStats l2;
  i64 xbar_bytes = 0;  ///< engine→SM tile delivery over the crossbar
  i64 l2_service_bytes = 0;   ///< all SM traffic serviced by the LLC
  i64 atomic_rmw_bytes = 0;   ///< atomic portion (pays the 2× LLC cost)
  /// DRAM bytes attributed to the allocation each access fell into
  /// (keyed by the allocation's name) — lets the Table 1 bench compare
  /// per-operand traffic against the analytical model.
  std::map<std::string, i64> operand_bytes;

  bool operator==(const MemStats&) const = default;

  i64 total_dram_bytes() const;
  i64 max_channel_bytes() const;
  /// Worst channel service time: bytes/bandwidth or, when the bank
  /// model ran, its busy time including row-miss penalties.
  double max_channel_service_ns(double bw_per_channel_gbps) const;
  /// Aggregate row-buffer hit rate (1.0 when the bank model did not run).
  double dram_row_hit_rate() const;

  /// Merge another run's statistics (used by composite kernels that
  /// execute phases on separate memory-system instances).
  MemStats& operator+=(const MemStats& o);
  /// Max-over-partitions of partition traffic (the camping metric's
  /// numerator), given channels grouped consecutively.
  i64 max_partition_bytes(int fb_partitions) const;
};

class MemorySystem {
 public:
  MemorySystem(const ArchConfig& arch, MemMode mode);

  /// Reserve a device array; returns its base address.  Bases are
  /// granule-aligned and separated so arrays never share a granule.
  u64 allocate(i64 bytes, const std::string& name);

  /// A warp-coalesced read of [addr, addr+bytes): split into 32 B
  /// sectors, each counted once (perfect intra-warp coalescing).
  void warp_load(u64 addr, i64 bytes) { request(kLoad, addr, bytes); }
  void warp_store(u64 addr, i64 bytes) { request(kStore, addr, bytes); }
  /// Atomic RMW on [addr, addr+bytes): charged 2× at the owning channel.
  void warp_atomic(u64 addr, i64 bytes) { request(kAtomic, addr, bytes); }

  /// Direct DRAM read issued by a near-memory engine (bypasses L2 — the
  /// engine sits beside the memory controller).
  void engine_read(u64 addr, i64 bytes);
  /// `count` engine reads of `bytes_each` each, pinned to an explicit
  /// channel — used when a placement policy (sched/layout.hpp) locates a
  /// strip's data in one partition instead of globally interleaving it.
  /// Booked with one channel and operand lookup; the bank model still
  /// streams every read in turn (nothing at all when count is 0).
  /// Attributed to operand `tag` (the engine always reads the sparse
  /// input).
  void engine_read_channel(int channel, i64 bytes_each, i64 count, const char* tag = "A");
  /// Engine output streamed to an SM across the crossbar (never touches
  /// DRAM).
  void xbar_transfer(i64 bytes);

  const MemStats& stats() const { return stats_; }

  /// Fold another shard's statistics into this instance (intra-kernel
  /// sharding: each shard records events into a private MemorySystem
  /// that replayed the identical allocation sequence; the merged totals
  /// equal the serial run's in counting mode because every per-sector
  /// contribution is order-independent there).  Requires matching mode
  /// and channel geometry.
  void merge(const MemorySystem& other);

 private:
  /// Request kinds; also the DRAM booking kinds (0=read, 1=write,
  /// 2=atomic) of `counting_access` and `dram_access`.
  enum Kind : int { kLoad = 0, kStore = 1, kAtomic = 2 };

  /// The one warp-request body: counting mode hands the request to
  /// `counting_access`; cache-sim looks each touched line up in the L2
  /// once and books its fills and writeback.
  void request(Kind kind, u64 addr, i64 bytes);

  /// Book one cache-sim DRAM access (an L2 fill or writeback).
  void dram_access(u64 addr, i64 bytes, int kind);

  /// Counting-mode accounting for one warp request: per-granule
  /// aggregated sector accounting (channel hash and operand lookup once
  /// per interleave granule instead of once per 32 B sector).  Totals
  /// equal one channel and operand booking per 32 B sector because the
  /// channel map is constant within a granule and allocations never
  /// share one.
  void counting_access(u64 addr, i64 bytes, int kind);

  /// Cached accumulator for the operand-attribution map entry of the
  /// allocation containing `addr`.  Consecutive accesses within one
  /// allocation (the common case) skip both the region binary search
  /// and the string-keyed map lookup.
  i64& operand_slot(u64 addr) {
    return addr >= cached_begin_ && addr < cached_end_ ? *cached_slot_ : find_operand_slot(addr);
  }
  /// The region lookup behind operand_slot; refills the cache.
  i64& find_operand_slot(u64 addr);

  struct Region {
    u64 begin, end;
    std::string tag;
  };

  ArchConfig arch_;
  MemMode mode_;
  Interleaver interleave_;
  std::unique_ptr<L2Cache> l2_;
  std::vector<DramChannelSim> dram_;  ///< cache-sim mode only
  std::vector<Region> regions_;       ///< sorted by begin (allocation order)
  int sector_shift_;       ///< log2 l2_sector_bytes
  int line_sector_shift_;  ///< log2 sectors per L2 line
  MemStats stats_;
  u64 next_base_ = 0;
  // operand_slot cache (empty range = invalid; map nodes are stable, so
  // the pointer survives later insertions).
  u64 cached_begin_ = 1;
  u64 cached_end_ = 0;
  i64* cached_slot_ = nullptr;
};

}  // namespace nmdt
