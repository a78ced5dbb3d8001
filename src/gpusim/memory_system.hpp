// The GPU memory system model: device allocations, warp request
// coalescing, optional L2 simulation, and per-pseudo-channel DRAM
// traffic accounting.
//
// Two fidelity modes (DESIGN.md Sec. 5):
//  * kCounting — requests bypass the L2 and count straight into DRAM
//    channel totals.  Kernels already encode shared-memory reuse
//    explicitly, so this mode measures *compulsory* traffic, matching
//    the Table 1 analytical model.  Cheap enough for thousand-matrix
//    suite sweeps.
//  * kCacheSim — requests run through the sectored L2; only misses
//    reach DRAM.  Used for traversal-order and locality experiments.
//
// Atomic read-modify-writes are charged atomic_cost_multiplier× at the
// channel, the paper's "atomic bandwidth = 2× memory access" model.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/dram.hpp"
#include "gpusim/interleave.hpp"

namespace nmdt {

enum class MemMode { kCounting, kCacheSim };

struct ChannelStats {
  i64 read_bytes = 0;
  i64 write_bytes = 0;
  i64 atomic_bytes = 0;  ///< already includes the 2× multiplier
  i64 requests = 0;
  // Bank/row-buffer timing (cache-sim mode; zero in counting mode).
  double busy_ns = 0.0;
  u64 row_hits = 0;
  u64 row_misses = 0;

  bool operator==(const ChannelStats&) const = default;

  i64 total_bytes() const { return read_bytes + write_bytes + atomic_bytes; }
};

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

  const ArchConfig& arch() const { return arch_; }
  MemMode mode() const { return mode_; }

  /// Reserve a device array; returns its base address.  Bases are
  /// granule-aligned and separated so arrays never share a granule.
  u64 allocate(i64 bytes, const std::string& name);

  /// A warp-coalesced read of [addr, addr+bytes): split into 32 B
  /// sectors, each counted once (perfect intra-warp coalescing).
  void warp_load(u64 addr, i64 bytes);
  void warp_store(u64 addr, i64 bytes);
  /// Atomic RMW on [addr, addr+bytes): charged 2× at the owning channel.
  void warp_atomic(u64 addr, i64 bytes);

  /// Test hook: when disabled, counting-mode warp requests take the
  /// generic per-sector event path instead of the granule-aggregated
  /// counting fast path, so tests can pin the two bit-identical.
  /// Process-global; call between runs only.  Default: enabled.
  static void set_counting_fast_path_for_test(bool enabled);
  static bool counting_fast_path_enabled();

  /// Batched equivalents: one call per *run* of same-sized warp requests
  /// (a row's B-row fetches, a tile's per-row C atomics).  Addresses are
  /// processed in order, so byte / hit / row-buffer accounting is
  /// identical to issuing the per-entry calls one by one (asserted by
  /// tests); the win is bookkeeping — in counting mode the per-sector
  /// event plumbing collapses to plain arithmetic, and the allocation
  /// lookup for operand attribution is cached across the run.
  void warp_load_run(std::span<const u64> addrs, i64 bytes_each);
  void warp_atomic_run(std::span<const u64> addrs, i64 bytes_each);

  /// Direct DRAM read issued by a near-memory engine (bypasses L2 — the
  /// engine sits beside the memory controller).
  void engine_read(u64 addr, i64 bytes);
  /// Engine read pinned to an explicit channel — used when a placement
  /// policy (sched/layout.hpp) locates a strip's data in one partition
  /// instead of globally interleaving it.  Attributed to operand
  /// `tag` (the engine always reads the sparse input).
  void engine_read_channel(int channel, i64 bytes, const char* tag = "A");
  /// `count` pinned engine reads of `bytes_each` each, booked with one
  /// channel and operand lookup.  The bank model still streams every
  /// read in turn, so all stats are bit-identical to `count` single
  /// calls (none at all when count is 0).
  void engine_read_channel(int channel, i64 bytes_each, i64 count, const char* tag = "A");
  /// Engine output streamed to an SM across the crossbar (never touches
  /// DRAM).
  void xbar_transfer(i64 bytes);

  const MemStats& stats() const { return stats_; }
  const Interleaver& interleaver() const { return interleave_; }

  /// Fold another shard's statistics into this instance (intra-kernel
  /// sharding: each shard records events into a private MemorySystem
  /// that replayed the identical allocation sequence; the merged totals
  /// equal the serial run's in counting mode because every per-sector
  /// contribution is order-independent there).  Requires matching mode
  /// and channel geometry.
  void merge(const MemorySystem& other);

  void reset_stats();

 private:
  void dram_access(u64 addr, i64 bytes, int kind);  // 0=read,1=write,2=atomic

  /// Counting-mode fast path for one warp request: per-granule
  /// aggregated sector accounting (channel hash and operand lookup once
  /// per interleave granule instead of once per 32 B sector).  Totals
  /// are bit-identical to the per-sector event path because the channel
  /// map is constant within a granule and allocations never share one.
  void counting_access(u64 addr, i64 bytes, int kind);

  /// Cached accumulator for the operand-attribution map entry of the
  /// allocation containing `addr`.  Consecutive accesses within one
  /// allocation (the common case, and every run-API entry) skip both
  /// the region binary search and the string-keyed map lookup.
  i64& operand_slot(u64 addr);

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
  MemStats stats_;
  u64 next_base_ = 0;
  // operand_slot cache (empty range = invalid; map nodes are stable, so
  // the pointer survives later insertions until reset_stats()).
  u64 cached_begin_ = 1;
  u64 cached_end_ = 0;
  i64* cached_slot_ = nullptr;
};

}  // namespace nmdt
