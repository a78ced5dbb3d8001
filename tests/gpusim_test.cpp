// GPU-model tests: architecture presets, interleaver bijectivity,
// sectored-L2 behaviour (hits, sector fills, LRU eviction, writeback),
// memory-system accounting (counting mode against a per-sector
// reference, cache-sim against a golden stream), warp-issue helpers,
// and the timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/interleave.hpp"
#include "gpusim/memory_system.hpp"
#include "gpusim/timing.hpp"
#include "gpusim/warp.hpp"
#include "kernels/spmm.hpp"
#include "reference_cachesim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

TEST(Arch, Gv100PresetMatchesPaperNumbers) {
  const ArchConfig c = ArchConfig::gv100();
  EXPECT_EQ(c.num_sms, 80);
  EXPECT_EQ(c.pseudo_channels, 64);
  EXPECT_NEAR(c.total_bandwidth_gbps(), 870.4, 0.1);  // 64 × 13.6
  EXPECT_EQ(c.l2_bytes, 6144 * 1024);
  EXPECT_EQ(c.shared_mem_per_sm, 96 * 1024);
  EXPECT_NEAR(c.die_area_mm2, 815.0, 1e-9);
  EXPECT_NEAR(c.tdp_watts, 250.0, 1e-9);
}

TEST(Arch, Tu116PresetMatchesPaperNumbers) {
  const ArchConfig c = ArchConfig::tu116();
  EXPECT_EQ(c.pseudo_channels, 24);
  EXPECT_NEAR(c.total_bandwidth_gbps(), 288.0, 0.1);  // 24 × 12
  EXPECT_NEAR(c.die_area_mm2, 284.0, 1e-9);
}

TEST(Arch, ValidateRejectsBadGeometry) {
  ArchConfig c = ArchConfig::gv100();
  c.l2_line_bytes = 100;  // not a multiple of sector
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.interleave_bytes = 100;  // not a power of two
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.fb_partitions = 7;  // does not divide 64 channels
  EXPECT_THROW(c.validate(), ConfigError);
  // The L2 and DRAM models index with shifts and a one-byte MRU way:
  // each of these must be a ConfigError, never a division by zero.
  for (int ways : {0, -1, kMaxL2Ways + 1}) {
    c = ArchConfig::gv100();
    c.l2_ways = ways;
    EXPECT_THROW(c.validate(), ConfigError) << "l2_ways " << ways;
  }
  c = ArchConfig::gv100();
  c.l2_line_bytes = 96;  // a multiple of the sector, not a power of two
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.l2_sector_bytes = 24;
  c.l2_line_bytes = 96;
  EXPECT_THROW(c.validate(), ConfigError);
  c = ArchConfig::gv100();
  c.l2_sector_bytes = 2;  // 64 sectors per line: more than the bitmap holds
  EXPECT_THROW(c.validate(), ConfigError);
  for (i64 row : {i64{0}, i64{-2048}, i64{3000}}) {
    c = ArchConfig::gv100();
    c.dram_row_bytes = row;
    EXPECT_THROW(c.validate(), ConfigError) << "dram_row_bytes " << row;
  }
  for (int banks : {0, -16, 12}) {
    c = ArchConfig::gv100();
    c.dram_banks_per_channel = banks;
    EXPECT_THROW(c.validate(), ConfigError) << "dram_banks_per_channel " << banks;
  }
  c = ArchConfig::gv100();
  c.l2_ways = kMaxL2Ways;
  c.l2_bytes = i64{kMaxL2Ways} * 128 * 3;
  EXPECT_NO_THROW(c.validate());
}

TEST(Interleaver, StableWithinGranuleAndDeterministic) {
  const Interleaver il(ArchConfig::gv100());
  EXPECT_EQ(il.granule_bytes(), 256);
  // All addresses within one granule map to one channel, and the
  // mapping is a pure function of the address.
  EXPECT_EQ(il.channel_of(0), il.channel_of(255));
  EXPECT_EQ(il.channel_of(4096), il.channel_of(4096 + 100));
  EXPECT_EQ(il.channel_of(12345), il.channel_of(12345));
}

TEST(Interleaver, HashSpreadsSequentialStream) {
  const Interleaver il(ArchConfig::gv100());
  std::map<int, i64> hits;
  const i64 granules = 64 * 256;
  for (u64 a = 0; a < static_cast<u64>(granules) * 256; a += 256) {
    ++hits[il.channel_of(a)];
  }
  ASSERT_EQ(hits.size(), 64u);
  for (const auto& [ch, n] : hits) {
    EXPECT_GT(n, 256 / 2) << "channel " << ch;
    EXPECT_LT(n, 256 * 2) << "channel " << ch;
  }
}

TEST(Interleaver, HashSpreadsPowerOfTwoStrides) {
  // The motivating case for hashing: a 2^k stride must not camp on a
  // subset of channels.
  const Interleaver il(ArchConfig::gv100());
  std::map<int, i64> hits;
  for (u64 i = 0; i < 4096; ++i) ++hits[il.channel_of(i * 64 * 256)];
  EXPECT_GT(hits.size(), 48u);
}

/// One 32 B sector of a 128 B-line L2, as the memory system books it.
L2Cache::LineResult access_sector(L2Cache& l2, CacheStats& stats, u64 addr, bool is_write) {
  return l2.access_line(addr / 128, static_cast<int>(addr % 128 / 32), 1, is_write, stats);
}

TEST(L2Cache, SectorFillOnFirstTouchThenHit) {
  L2Cache l2(ArchConfig::gv100());
  CacheStats st;
  const auto miss = access_sector(l2, st, 0x1000, false);
  EXPECT_EQ(miss.fill_mask, 1u);
  EXPECT_EQ(st.sector_misses, 1u);
  const auto hit = access_sector(l2, st, 0x1000, false);
  EXPECT_EQ(hit.fill_mask, 0u);
  EXPECT_EQ(st, (CacheStats{2, 1, 1, 0, 0}));
}

TEST(L2Cache, ResidentLineMissingSectorCostsOnlySectorFill) {
  L2Cache l2(ArchConfig::gv100());
  CacheStats st;
  access_sector(l2, st, 0x1000, false);                   // sector 0 of the line
  const auto r = access_sector(l2, st, 0x1020, false);   // sector 1, same 128B line
  EXPECT_EQ(r.fill_mask, 0b10u);
  EXPECT_EQ(st.evictions, 0u);  // no new line allocated
  // A whole-line access then fills only the two sectors still missing.
  const auto rest = l2.access_line(0x1000 / 128, 0, 4, false, st);
  EXPECT_EQ(rest.fill_mask, 0b1100u);
  EXPECT_EQ(st, (CacheStats{6, 2, 4, 0, 0}));
}

TEST(L2Cache, LruEvictionWithinSet) {
  ArchConfig small = ArchConfig::gv100();
  small.l2_bytes = 2 * 128 * 4;  // 2 ways, 4 sets
  small.l2_ways = 2;
  L2Cache l2(small);
  CacheStats st;
  const u64 set_stride = 4 * 128;  // same set every 512 bytes
  access_sector(l2, st, 0 * set_stride, false);   // way 0
  access_sector(l2, st, 1 * set_stride, false);   // way 1
  access_sector(l2, st, 0 * set_stride, false);   // refresh line A
  access_sector(l2, st, 2 * set_stride, false);   // evicts line B (LRU)
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(access_sector(l2, st, 0 * set_stride, false).fill_mask, 0u)
      << "most recently used line must survive";
  EXPECT_NE(access_sector(l2, st, 1 * set_stride, false).fill_mask, 0u)
      << "LRU victim must have been evicted";
}

TEST(L2Cache, DirtyEvictionWritesBack) {
  ArchConfig small = ArchConfig::gv100();
  small.l2_bytes = 1 * 128 * 2;  // 1 way, 2 sets
  small.l2_ways = 1;
  L2Cache l2(small);
  CacheStats st;
  const u64 set_stride = 2 * 128;
  access_sector(l2, st, 0, true);  // dirty
  const auto evict = access_sector(l2, st, set_stride, false);  // same set, evicts
  EXPECT_EQ(evict.writeback_bytes, 32);
  EXPECT_EQ(st.writebacks, 1u);
}

TEST(MemorySystem, AllocationsDoNotShareGranules) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 a = mem.allocate(100, "a");
  const u64 b = mem.allocate(100, "b");
  EXPECT_GE(b - a, 256u);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
}

TEST(MemorySystem, CountingModeChargesSectorGranularity) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 base = mem.allocate(4096, "x");
  mem.warp_load(base, 4);  // 4 bytes still occupy one 32 B sector
  EXPECT_EQ(mem.stats().total_dram_bytes(), 32);
  mem.warp_load(base + 32, 64);  // spans exactly two sectors
  EXPECT_EQ(mem.stats().total_dram_bytes(), 32 + 64);
}

TEST(MemorySystem, AtomicsChargedDouble) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 base = mem.allocate(4096, "c");
  mem.warp_atomic(base, 32);
  i64 atomic_bytes = 0;
  for (const auto& ch : mem.stats().channels) atomic_bytes += ch.atomic_bytes;
  EXPECT_EQ(atomic_bytes, 64);  // 32 bytes × 2 (Table 1 atomic model)
}

TEST(MemorySystem, CacheModeFiltersRepeatedLoads) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCacheSim);
  const u64 base = mem.allocate(4096, "b");
  mem.warp_load(base, 128);
  const i64 first = mem.stats().total_dram_bytes();
  mem.warp_load(base, 128);  // all hits
  EXPECT_EQ(mem.stats().total_dram_bytes(), first);
  EXPECT_GT(mem.stats().l2.sector_hits, 0u);
}

TEST(MemorySystem, EngineReadsExactBytesOnAddressedChannel) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const int ch = Interleaver(ArchConfig::gv100()).channel_of(256);
  mem.engine_read(256, 8);  // exact bytes, no sector inflation
  EXPECT_EQ(mem.stats().channels[ch].read_bytes, 8);
  const int other = ch == 5 ? 6 : 5;
  mem.engine_read_channel(other, 100, 1);
  EXPECT_EQ(mem.stats().channels[other].read_bytes, 100);
  EXPECT_THROW(mem.engine_read_channel(64, 1, 1), FormatError);
}

TEST(MemorySystem, MaxPartitionBytesGroupsChannels) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.engine_read_channel(0, 100, 1);
  mem.engine_read_channel(7, 100, 1);  // same partition as channel 0
  mem.engine_read_channel(8, 50, 1);   // partition 1
  EXPECT_EQ(mem.stats().max_partition_bytes(8), 200);
  EXPECT_EQ(mem.stats().max_channel_bytes(), 100);
}

TEST(Warp, IssueClampsAndCountsLaneSlots) {
  KernelCounters c;
  const ArchConfig arch = ArchConfig::gv100();
  issue(c, arch, InstrClass::kFp, 20);
  EXPECT_EQ(c.fp_instr, 1u);
  EXPECT_EQ(c.lane_slots_active, 20u);
  EXPECT_EQ(c.lane_slots_inactive, 12u);
  issue(c, arch, InstrClass::kControl, 100);  // clamped to warp size
  EXPECT_EQ(c.lane_slots_active, 52u);
}

TEST(Warp, IssueWavesSplitsRemainder) {
  KernelCounters c;
  const ArchConfig arch = ArchConfig::gv100();
  issue_waves(c, arch, InstrClass::kMemory, 70);  // 2 full waves + 6 lanes
  EXPECT_EQ(c.memory_instr, 3u);
  EXPECT_EQ(c.lane_slots_active, 70u);
  EXPECT_EQ(c.lane_slots_inactive, 3u * 32 - 70u);
}

TEST(Warp, IssueWavesZeroElementsNoOp) {
  KernelCounters c;
  issue_waves(c, ArchConfig::gv100(), InstrClass::kMemory, 0);
  EXPECT_EQ(c.total_instr(), 0u);
}

TEST(Counters, AccumulateAndInactiveFraction) {
  KernelCounters a, b;
  const ArchConfig arch = ArchConfig::gv100();
  issue(a, arch, InstrClass::kFp, 16);
  issue(b, arch, InstrClass::kInt, 32);
  a += b;
  EXPECT_EQ(a.total_instr(), 2u);
  EXPECT_NEAR(a.inactive_fraction(), 16.0 / 64.0, 1e-12);
}

TEST(Timing, MemoryBoundKernelAttributesStallsToMemory) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  c.kernel_launches = 1;
  issue(c, arch, InstrClass::kFp, 32, 1000);  // tiny compute
  MemStats mem;
  mem.channels.assign(64, {});
  mem.channels[0].read_bytes = 10'000'000;  // one hot channel
  const TimingBreakdown t = compute_timing(arch, c, mem);
  EXPECT_GT(t.memory_ns, t.compute_ns);
  EXPECT_NEAR(t.memory_ns, 10'000'000 / 13.6, 1.0);
  EXPECT_GT(t.frac_memory, 0.9);
  EXPECT_NEAR(t.frac_memory + t.frac_sm + t.frac_other, 1.0, 1e-12);
}

TEST(Timing, ComputeBoundKernelHasNoMemoryStall) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  issue(c, arch, InstrClass::kFp, 32, 100'000'000);
  MemStats mem;
  mem.channels.assign(64, {});
  mem.channels[0].read_bytes = 100;
  const TimingBreakdown t = compute_timing(arch, c, mem);
  EXPECT_DOUBLE_EQ(t.frac_memory, 0.0);
  EXPECT_GT(t.frac_sm, 0.99);
}

TEST(Timing, InflationStretchesComputeOnly) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  issue(c, arch, InstrClass::kFp, 32, 1000);
  MemStats mem;
  mem.channels.assign(64, {});
  const TimingBreakdown t1 = compute_timing(arch, c, mem, 1.0);
  const TimingBreakdown t2 = compute_timing(arch, c, mem, 2.0);
  EXPECT_NEAR(t2.compute_ns, 2.0 * t1.compute_ns, 1e-9);
  EXPECT_THROW(compute_timing(arch, c, mem, 0.5), ConfigError);
}

TEST(MemorySystem, OperandAttributionFollowsAllocations) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const u64 a = mem.allocate(4096, "A.row_ptr");
  const u64 b = mem.allocate(4096, "B");
  const u64 c = mem.allocate(4096, "C");
  mem.warp_load(a, 64);
  mem.warp_load(b, 128);
  mem.warp_store(c, 32);
  mem.warp_atomic(c, 32);  // 2x
  const auto& ops = mem.stats().operand_bytes;
  EXPECT_EQ(ops.at("A"), 64);
  EXPECT_EQ(ops.at("B"), 128);
  EXPECT_EQ(ops.at("C"), 32 + 64);
  // Unmapped addresses attribute to "?" rather than a neighbour.
  mem.warp_load(c + (u64{1} << 40), 32);
  EXPECT_EQ(mem.stats().operand_bytes.at("?"), 32);
}

TEST(MemorySystem, EngineChannelReadsTagAsSparseInput) {
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  mem.engine_read_channel(3, 100, 1);
  EXPECT_EQ(mem.stats().operand_bytes.at("A"), 100);
}

TEST(MemStats, MergeAccumulatesEverything) {
  MemStats a, b;
  a.channels.assign(4, {});
  b.channels.assign(4, {});
  a.channels[1].read_bytes = 10;
  b.channels[1].read_bytes = 5;
  b.channels[2].atomic_bytes = 7;
  b.channels[2].busy_ns = 3.5;
  b.channels[2].row_misses = 2;
  a.xbar_bytes = 1;
  b.xbar_bytes = 2;
  b.l2.sector_hits = 9;
  b.l2_service_bytes = 64;
  a += b;
  EXPECT_EQ(a.channels[1].read_bytes, 15);
  EXPECT_EQ(a.channels[2].atomic_bytes, 7);
  EXPECT_DOUBLE_EQ(a.channels[2].busy_ns, 3.5);
  EXPECT_EQ(a.channels[2].row_misses, 2u);
  EXPECT_EQ(a.xbar_bytes, 3);
  EXPECT_EQ(a.l2.sector_hits, 9u);
  EXPECT_EQ(a.l2_service_bytes, 64);
}

TEST(MemorySystem, MergeFoldsPeerStatsIntoThis) {
  // The shard merge: two instances that replayed the same allocation
  // sequence, merged, must equal the elementwise sum of their stats —
  // in cache-sim mode the L2 counters and bank timing included.
  for (MemMode mode : {MemMode::kCounting, MemMode::kCacheSim}) {
    SCOPED_TRACE(mode == MemMode::kCounting ? "counting" : "cachesim");
    MemorySystem a(ArchConfig::gv100(), mode);
    MemorySystem b(ArchConfig::gv100(), mode);
    const u64 pa = a.allocate(4096, "X");
    const u64 pb = b.allocate(4096, "X");
    ASSERT_EQ(pa, pb);
    a.warp_load(pa, 128);
    a.warp_store(pa + 512, 64);
    b.warp_load(pb + 256, 64);
    b.warp_atomic(pb, 32);
    b.warp_atomic(pb, 32);  // an L2 hit in cache-sim mode
    b.xbar_transfer(10);
    if (mode == MemMode::kCacheSim) {
      // The fields only cache-sim fills are live on both sides.
      auto busy_ns = [](const MemStats& s) {
        double total = 0.0;
        for (const auto& c : s.channels) total += c.busy_ns;
        return total;
      };
      EXPECT_GT(b.stats().l2.sector_hits, 0u);
      EXPECT_GT(busy_ns(a.stats()), 0.0);
      EXPECT_GT(busy_ns(b.stats()), 0.0);
    }
    MemStats expected = a.stats();
    expected += b.stats();
    a.merge(b);
    EXPECT_EQ(a.stats(), expected);
    // Requests after the merge add to the merged totals.
    a.warp_load(pa + 1024, 32);
    EXPECT_EQ(a.stats().l2_service_bytes, expected.l2_service_bytes + 32);
    if (mode == MemMode::kCacheSim) {
      EXPECT_EQ(a.stats().l2.accesses, expected.l2.accesses + 1);
      EXPECT_EQ(a.stats().l2.sector_hits, expected.l2.sector_hits);
    }
  }
}

TEST(MemorySystem, MergeRejectsModeMismatch) {
  MemorySystem a(ArchConfig::gv100(), MemMode::kCounting);
  MemorySystem b(ArchConfig::gv100(), MemMode::kCacheSim);
  EXPECT_THROW(a.merge(b), FormatError);
}

enum class Req { kLoad, kStore, kAtomic };

void issue_request(MemorySystem& mem, Req kind, u64 addr, i64 bytes) {
  switch (kind) {
    case Req::kLoad: mem.warp_load(addr, bytes); break;
    case Req::kStore: mem.warp_store(addr, bytes); break;
    case Req::kAtomic: mem.warp_atomic(addr, bytes); break;
  }
}

/// Counting-mode reference: every 32 B sector of a request books its
/// own channel_of lookup and operand entry, atomics at
/// atomic_cost_multiplier×.  MemorySystem books the same totals once
/// per interleave granule.
class PerSectorReference {
 public:
  explicit PerSectorReference(const ArchConfig& arch) : arch_(arch), interleave_(arch) {
    stats.channels.assign(static_cast<usize>(arch.pseudo_channels), ChannelStats{});
  }

  void add_allocation(u64 base, i64 bytes, const std::string& tag) {
    allocations_.push_back({base, base + static_cast<u64>(bytes), tag});
  }

  void request(Req kind, u64 addr, i64 bytes) {
    const u64 sector = static_cast<u64>(arch_.l2_sector_bytes);
    const i64 charged =
        kind == Req::kAtomic
            ? static_cast<i64>(static_cast<double>(sector) * arch_.atomic_cost_multiplier)
            : static_cast<i64>(sector);
    const u64 last = (addr + static_cast<u64>(bytes) - 1) / sector;
    for (u64 s = addr / sector; s <= last; ++s) {
      const u64 sector_addr = s * sector;
      ChannelStats& ch =
          stats.channels[static_cast<usize>(interleave_.channel_of(sector_addr))];
      ++ch.requests;
      switch (kind) {
        case Req::kLoad: ch.read_bytes += charged; break;
        case Req::kStore: ch.write_bytes += charged; break;
        case Req::kAtomic:
          ch.atomic_bytes += charged;
          stats.atomic_rmw_bytes += static_cast<i64>(sector);
          break;
      }
      stats.l2_service_bytes += static_cast<i64>(sector);
      stats.operand_bytes[tag_of(sector_addr)] += charged;
    }
  }

  MemStats stats;

 private:
  struct Allocation {
    u64 begin, end;
    std::string tag;
  };

  std::string tag_of(u64 addr) const {
    for (const Allocation& a : allocations_)
      if (addr >= a.begin && addr < a.end) return a.tag;
    return "?";
  }

  ArchConfig arch_;
  Interleaver interleave_;
  std::vector<Allocation> allocations_;
};

TEST(MemorySystem, CountingModeMatchesPerSectorReference) {
  struct Alloc {
    const char* name;
    const char* tag;
    i64 bytes;
  };
  constexpr Alloc kAllocs[] = {{"A.row_ptr", "A", 1001},
                               {"A.entries", "A", 4 * 256 + 7},
                               {"B", "B", 8192},
                               {"C", "C", 3 * 256}};
  const std::pair<const char*, ArchConfig> archs[] = {
      {"gv100", ArchConfig::gv100()},
      {"tu116", ArchConfig::tu116()},
      {"a100", ArchConfig::a100()},
      {"evaluation_config", evaluation_config().arch}};
  for (const auto& [arch_name, arch] : archs) {
    SCOPED_TRACE(arch_name);
    MemorySystem mem(arch, MemMode::kCounting);
    PerSectorReference ref(arch);
    std::vector<std::pair<u64, i64>> allocations;
    for (const Alloc& a : kAllocs) {
      const u64 base = mem.allocate(a.bytes, a.name);
      ref.add_allocation(base, a.bytes, a.tag);
      allocations.emplace_back(base, a.bytes);
    }
    const i64 granule = arch.interleave_bytes;
    Rng rng(97);
    int crossing = 0, ending = 0, unmapped = 0;
    for (int i = 0; i < 3000; ++i) {
      const Req kind = static_cast<Req>(rng.below(3));
      const auto [base, size] = allocations[rng.below(allocations.size())];
      // 1 B to four granules: any length, or a multiple of 2, 4 or 8 B.
      const i64 unit = i64{1} << rng.below(4);
      const i64 bytes = unit * rng.range(1, std::min<i64>(4 * granule, size) / unit);
      u64 addr = 0;
      switch (rng.below(8)) {
        case 0: {  // ends on the allocation's last byte
          addr = base + static_cast<u64>(size - bytes);
          break;
        }
        case 1: {  // straddles a granule boundary inside the allocation
          const i64 boundary = granule * rng.range(1, (size - 1) / granule);
          const i64 before = bytes > 1 ? rng.range(1, bytes - 1) : 0;
          addr = base + static_cast<u64>(std::clamp<i64>(boundary - before, 0, size - bytes));
          break;
        }
        case 2: {  // outside every allocation
          addr = (u64{1} << 40) + rng.below(4096);
          ++unmapped;
          break;
        }
        default:  // any start, unaligned
          addr = base + rng.below(static_cast<u64>(size - bytes) + 1);
          break;
      }
      const u64 end = addr + static_cast<u64>(bytes);
      if (end == base + static_cast<u64>(size)) ++ending;
      if (addr / static_cast<u64>(granule) != (end - 1) / static_cast<u64>(granule))
        ++crossing;
      issue_request(mem, kind, addr, bytes);
      ref.request(kind, addr, bytes);
      ASSERT_TRUE(mem.stats() == ref.stats)
          << "request " << i << ": kind " << static_cast<int>(kind) << " addr " << addr
          << " bytes " << bytes;
    }
    EXPECT_GT(crossing, 100);
    EXPECT_GT(ending, 100);
    EXPECT_GT(unmapped, 100);
  }
}

/// The cache-sim golden stream: loads of a small "B" array, then loads,
/// stores and atomics of 4..128 B on 20 granules of "C" that all map to
/// the same few L2 sets (stride = sets × line), so lines are evicted
/// and dirty ones written back.
void drive_golden_stream(MemorySystem& mem, const ArchConfig& arch) {
  const u64 b = mem.allocate(4 * 256, "B");
  const u64 set_stride = static_cast<u64>(arch.l2_bytes / arch.l2_ways);
  const u64 c = mem.allocate(static_cast<i64>(20 * set_stride), "C");
  Rng rng(2024);
  for (int i = 0; i < 600; ++i) {
    if (rng.chance(0.2)) {
      mem.warp_load(b + rng.below(4 * 256 - 128), 128);
      continue;
    }
    const Req kind = static_cast<Req>(rng.below(3));
    const u64 addr = c + rng.below(20) * set_stride + rng.below(256);
    issue_request(mem, kind, addr, i64{4} << rng.below(6));
  }
}

TEST(MemorySystem, CacheSimGoldenStreamOnGv100) {
  // Literal totals of the golden stream: a swapped fill kind, a dropped
  // atomic booking or a lost bank-timing copy moves at least one.
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCacheSim);
  drive_golden_stream(mem, ArchConfig::gv100());
  const MemStats& s = mem.stats();
  EXPECT_EQ(s.l2, (CacheStats{1749, 1220, 529, 121, 103}));
  EXPECT_EQ(s.l2_service_bytes, 55968);
  EXPECT_EQ(s.atomic_rmw_bytes, 12256);
  EXPECT_EQ(s.xbar_bytes, 0);
  EXPECT_EQ(s.operand_bytes, (std::map<std::string, i64>{{"B", 1024}, {"C", 30752}}));
  // The channels the stream reached; every other channel stays zero.
  struct Touched {
    usize channel;
    ChannelStats stats;  // read, write, atomic, requests, busy_ns, row hits, misses
  };
  const Touched kTouched[] = {
      {0, {256, 0, 0, 8, 25.323529411764703, 7, 1}},
      {1, {512, 224, 448, 27, 93.558823529411768, 26, 1}},
      {3, {128, 128, 256, 9, 44.147058823529413, 8, 1}},
      {4, {384, 320, 320, 21, 81.79411764705884, 20, 1}},
      {6, {128, 0, 0, 4, 15.911764705882355, 3, 1}},
      {9, {512, 544, 896, 35, 189.02941176470583, 28, 7}},
      {12, {480, 416, 384, 26, 100.61764705882352, 25, 1}},
      {15, {416, 736, 768, 32, 147.6764705882353, 31, 1}},
      {17, {0, 64, 384, 7, 39.441176470588239, 6, 1}},
      {18, {480, 384, 128, 21, 79.441176470588246, 20, 1}},
      {20, {160, 32, 0, 6, 20.617647058823529, 5, 1}},
      {23, {544, 224, 320, 26, 125.50000000000006, 19, 7}},
      {26, {320, 288, 640, 23, 124.26470588235297, 18, 5}},
      {28, {128, 0, 0, 4, 15.911764705882355, 3, 1}},
      {29, {448, 320, 192, 20, 77.088235294117652, 19, 1}},
      {31, {64, 32, 0, 3, 13.558823529411766, 2, 1}},
      {32, {416, 512, 704, 30, 126.50000000000003, 29, 1}},
      {34, {544, 384, 192, 23, 114.85294117647059, 18, 5}},
      {37, {640, 608, 896, 41, 203.14705882352945, 34, 7}},
      {40, {576, 704, 128, 26, 110.0294117647059, 25, 1}},
      {42, {128, 32, 64, 6, 22.970588235294116, 5, 1}},
      {43, {288, 512, 768, 27, 121.79411764705883, 26, 1}},
      {45, {320, 0, 0, 10, 36.529411764705877, 8, 2}},
      {48, {320, 256, 640, 23, 102.41176470588238, 21, 2}},
      {51, {608, 256, 448, 28, 135.47058823529414, 22, 6}},
      {53, {0, 64, 384, 7, 39.441176470588239, 6, 1}},
      {54, {352, 128, 640, 23, 88.852941176470623, 22, 1}},
      {56, {192, 192, 0, 8, 34.735294117647058, 7, 1}},
      {57, {832, 352, 448, 38, 146.00000000000003, 34, 4}},
      {59, {544, 928, 448, 32, 160.6764705882353, 29, 3}},
      {62, {832, 832, 256, 38, 160.67647058823528, 35, 3}},
  };
  ASSERT_EQ(s.channels.size(), 64u);
  std::vector<ChannelStats> expected(s.channels.size());
  for (const Touched& t : kTouched) expected[t.channel] = t.stats;
  for (usize ch = 0; ch < expected.size(); ++ch)
    EXPECT_EQ(s.channels[ch], expected[ch]) << "channel " << ch;
}

TEST(CacheSimReference, FlatL2MatchesPerSectorModelOnEveryGeometry) {
  // The shipped cache-sim path (one flat-L2 lookup per line, shifts,
  // bank timing booked in place) against the per-sector reference it
  // replaced: every CacheStats and MemStats field, after every request.
  auto geometry = [](int ways, i64 sets) {
    ArchConfig a = ArchConfig::gv100();
    a.l2_ways = ways;
    a.l2_bytes = static_cast<i64>(ways) * a.l2_line_bytes * sets;
    return a;
  };
  const std::pair<const char*, ArchConfig> archs[] = {
      {"gv100", ArchConfig::gv100()},
      {"tu116", ArchConfig::tu116()},
      {"a100", ArchConfig::a100()},
      {"evaluation_config(4096, 16)", evaluation_config(4096, 16).arch},
      {"evaluation_config(4096, 64)", evaluation_config(4096, 64).arch},
      {"evaluation_config(6000, 16)", evaluation_config(6000, 16).arch},
      {"evaluation_config(16384, 8)", evaluation_config(16384, 8).arch},
      {"1-way, 37 sets", geometry(1, 37)},
      {"2-way, 13 sets", geometry(2, 13)},
  };
  for (const auto& [arch_name, arch] : archs) {
    SCOPED_TRACE(arch_name);
    const i64 line = arch.l2_line_bytes;
    const u64 set_stride = static_cast<u64>(arch.l2_bytes / arch.l2_ways);
    const i64 sets = static_cast<i64>(set_stride) / line;
    if (std::string(arch_name).starts_with("evaluation_config")) {
      EXPECT_FALSE(std::has_single_bit(static_cast<u64>(sets))) << sets << " sets";
    }
    MemorySystem mem(arch, MemMode::kCacheSim);
    reference::CacheSimMemory ref(arch);
    // "hot": ways + 3 lines per set on a few sets, so lines evict and
    // dirty ones write back; "wide": twice the L2.
    const i64 hot_bytes = static_cast<i64>(arch.l2_ways + 3) * static_cast<i64>(set_stride);
    const i64 wide_bytes = 2 * arch.l2_bytes;
    const u64 small = mem.allocate(1000, "A.row_ptr");
    ref.add_allocation(small, 1000, "A");
    const u64 hot = mem.allocate(hot_bytes, "C");
    ref.add_allocation(hot, hot_bytes, "C");
    const u64 wide = mem.allocate(wide_bytes, "B");
    ref.add_allocation(wide, wide_bytes, "B");
    Rng rng(31);
    int multi_line = 0;
    for (int i = 0; i < 4000; ++i) {
      const int pick = static_cast<int>(rng.below(20));
      // 1 B to four lines, or a power of two from 4 B to 256 B.
      const i64 bytes = rng.chance(0.5) ? rng.range(1, 4 * line) : i64{4} << rng.below(7);
      u64 addr = 0;
      if (pick < 10) {
        addr = hot + rng.below(static_cast<u64>(arch.l2_ways + 3)) * set_stride +
               rng.below(static_cast<u64>(2 * line) * 4);
      } else if (pick < 16) {
        addr = wide + rng.below(static_cast<u64>(wide_bytes - bytes));
      } else if (pick < 17) {
        addr = small + rng.below(1000);
      } else if (pick < 18) {
        addr = (u64{1} << 40) + rng.below(1 << 16);  // unmapped
      } else {
        const u64 at = wide + rng.below(static_cast<u64>(wide_bytes));
        mem.engine_read(at, bytes);
        ref.engine_read(at, bytes);
        ASSERT_TRUE(mem.stats() == ref.stats) << "engine read " << i;
        continue;
      }
      if (addr / static_cast<u64>(line) != (addr + static_cast<u64>(bytes) - 1) /
                                                  static_cast<u64>(line))
        ++multi_line;
      const int kind = static_cast<int>(rng.below(3));
      issue_request(mem, static_cast<Req>(kind), addr, bytes);
      ref.request(static_cast<reference::CacheSimMemory::Kind>(kind), addr, bytes);
      ASSERT_TRUE(mem.stats() == ref.stats)
          << "request " << i << ": kind " << kind << " addr " << addr << " bytes " << bytes;
    }
    const CacheStats& l2 = ref.stats.l2;
    EXPECT_GT(multi_line, 1000);
    EXPECT_GT(l2.sector_hits, 1000u);
    EXPECT_GT(l2.evictions, 500u);
    EXPECT_GT(l2.writebacks, 300u);
  }
}

TEST(MemStats, ServiceTimeTakesMaxOfTransferAndBusy) {
  MemStats s;
  s.channels.assign(2, {});
  s.channels[0].read_bytes = 1360;  // 100 ns at 13.6 B/ns
  s.channels[1].read_bytes = 136;   // 10 ns transfer...
  s.channels[1].busy_ns = 500.0;    // ...but bank model says 500 ns
  EXPECT_NEAR(s.max_channel_service_ns(13.6), 500.0, 1e-9);
  s.channels[1].busy_ns = 0.0;
  EXPECT_NEAR(s.max_channel_service_ns(13.6), 100.0, 1e-9);
}

TEST(Timing, LlcAtomicBandwidthTerm) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  MemStats mem;
  mem.channels.assign(64, {});
  mem.l2_service_bytes = 2'000'000'000;  // 2 GB through a 2000 GB/s LLC
  mem.atomic_rmw_bytes = 1'000'000'000;  // +1 GB of RMW at 2x
  const TimingBreakdown t = compute_timing(arch, c, mem);
  // (2e9 + 1e9 * (2-1)) / 2000 GB/s = 1.5e6 ns
  EXPECT_NEAR(t.llc_ns, 1.5e6, 1.0);
  EXPECT_NEAR(t.total_ns, 1.5e6, 1.0);
}

TEST(Timing, EngineBoundKernel) {
  const ArchConfig arch = ArchConfig::gv100();
  KernelCounters c;
  MemStats mem;
  mem.channels.assign(64, {});
  const TimingBreakdown t = compute_timing(arch, c, mem, 1.0, /*engine_ns=*/5000.0);
  EXPECT_NEAR(t.total_ns, 5000.0, 1e-9);
}

}  // namespace
}  // namespace nmdt
