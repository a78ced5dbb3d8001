// Reference cache-sim memory model for differential tests: the sectored
// L2, the bank model and the cache-sim request walk as they were before
// the flat L2.  Every 32 B sector of a request looks its set up again
// (three divisions, a 16-way scan of Line structs), the channel hash
// takes a 64-bit remainder, and the DRAM bank model splits rows and
// banks by division.  The shipped model
// (gpusim/cache.hpp, gpusim/memory_system.cpp) must book identical
// CacheStats and MemStats after every request.
#pragma once

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "gpusim/arch.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/memory_system.hpp"
#include "util/error.hpp"

namespace nmdt::reference {

/// The per-sector L2: one access() per 32 B sector, LRU by stamp.
class L2Cache {
 public:
  explicit L2Cache(const ArchConfig& arch)
      : ways_(arch.l2_ways),
        line_bytes_(arch.l2_line_bytes),
        sector_bytes_(arch.l2_sector_bytes) {
    arch.validate();
    num_sets_ = static_cast<int>(arch.l2_bytes / (static_cast<i64>(ways_) * line_bytes_));
    lines_.assign(static_cast<usize>(num_sets_) * ways_, Line{});
  }

  struct AccessResult {
    bool hit = false;
    i64 dram_read_bytes = 0;   ///< sector fill on miss
    i64 dram_write_bytes = 0;  ///< dirty eviction writeback
  };

  /// Access one sector-aligned address.
  AccessResult access(u64 addr, bool is_write) {
    ++stats_.accesses;
    ++access_clock_;
    AccessResult res;

    const u64 line_addr = addr / static_cast<u64>(line_bytes_);
    const int sector = static_cast<int>((addr % static_cast<u64>(line_bytes_)) /
                                        static_cast<u64>(sector_bytes_));
    const u32 sector_bit = u32{1} << sector;
    const int set = static_cast<int>(line_addr % static_cast<u64>(num_sets_));
    const u64 tag = line_addr / static_cast<u64>(num_sets_);

    Line* base = &lines_[static_cast<usize>(set) * ways_];

    // Lookup.
    for (int w = 0; w < ways_; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru_stamp = access_clock_;
        if (line.valid_sectors & sector_bit) {
          ++stats_.sector_hits;
          res.hit = true;
        } else {
          // Line resident, sector not: sector fill.
          ++stats_.sector_misses;
          line.valid_sectors |= sector_bit;
          res.dram_read_bytes = sector_bytes_;
        }
        if (is_write) line.dirty_sectors |= sector_bit;
        return res;
      }
    }

    // Miss: choose LRU victim.
    ++stats_.sector_misses;
    Line* victim = base;
    for (int w = 1; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru_stamp < victim->lru_stamp) victim = &base[w];
    }
    if (victim->valid) {
      ++stats_.evictions;
      if (victim->dirty_sectors != 0) {
        ++stats_.writebacks;
        res.dram_write_bytes =
            static_cast<i64>(std::popcount(victim->dirty_sectors)) * sector_bytes_;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->valid_sectors = sector_bit;
    victim->dirty_sectors = is_write ? sector_bit : 0;
    victim->lru_stamp = access_clock_;
    res.dram_read_bytes += sector_bytes_;
    return res;
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    u64 tag = 0;
    u32 valid_sectors = 0;  ///< bitmap
    u32 dirty_sectors = 0;
    u64 lru_stamp = 0;
    bool valid = false;
  };

  int ways_;
  int num_sets_;
  int line_bytes_;
  int sector_bytes_;
  u64 access_clock_ = 0;
  std::vector<Line> lines_;  ///< num_sets_ * ways_
  CacheStats stats_;
};

/// The division-based bank model with its own timing accumulators.
class DramChannel {
 public:
  explicit DramChannel(const ArchConfig& arch)
      : banks_(arch.dram_banks_per_channel),
        row_bytes_(arch.dram_row_bytes),
        ns_per_byte_(1.0 / arch.bw_per_channel_gbps),
        miss_penalty_ns_(arch.dram_row_miss_penalty_ns / arch.dram_bank_parallelism),
        open_row_(static_cast<usize>(banks_), ~u64{0}) {}

  void access(u64 addr, i64 bytes) {
    if (bytes <= 0) return;
    busy_ns_ += static_cast<double>(bytes) * ns_per_byte_;
    const u64 global_row = addr / static_cast<u64>(row_bytes_);
    const usize bank = static_cast<usize>(global_row % static_cast<u64>(banks_));
    const u64 row = global_row / static_cast<u64>(banks_);
    if (open_row_[bank] == row) {
      ++row_hits_;
    } else {
      ++row_misses_;
      open_row_[bank] = row;
      busy_ns_ += miss_penalty_ns_;
    }
  }

  void stream(i64 bytes) {
    if (bytes <= 0) return;
    busy_ns_ += static_cast<double>(bytes) * ns_per_byte_;
    ++row_hits_;
  }

  double busy_ns() const { return busy_ns_; }
  u64 row_hits() const { return row_hits_; }
  u64 row_misses() const { return row_misses_; }

 private:
  int banks_;
  i64 row_bytes_;
  double ns_per_byte_;
  double miss_penalty_ns_;
  double busy_ns_ = 0.0;
  u64 row_hits_ = 0;
  u64 row_misses_ = 0;
  std::vector<u64> open_row_;
};

/// The cache-sim memory system, one L2 access per sector: a fill is
/// booked at the sector's address, a writeback right after it, and the
/// bank timing and L2 statistics are copied into the stats after every
/// booking.  Allocations mirror MemorySystem::allocate.
class CacheSimMemory {
 public:
  explicit CacheSimMemory(const ArchConfig& arch)
      : arch_(arch),
        l2_(arch),
        dram_(static_cast<usize>(arch.pseudo_channels), DramChannel(arch)) {
    stats.channels.assign(static_cast<usize>(arch.pseudo_channels), ChannelStats{});
  }

  void add_allocation(u64 base, i64 bytes, const std::string& tag) {
    const u64 granule = static_cast<u64>(arch_.interleave_bytes);
    allocations_.push_back(
        {base, base + (static_cast<u64>(bytes) + granule - 1) / granule * granule, tag});
  }

  enum Kind { kLoad, kStore, kAtomic };

  void request(Kind kind, u64 addr, i64 bytes) {
    const i64 sector = arch_.l2_sector_bytes;
    const bool is_write = kind != kLoad;
    const int fill_kind = kind == kAtomic ? 2 : 0;
    if (bytes > 0) {
      const u64 first = addr / static_cast<u64>(sector);
      const u64 last = (addr + static_cast<u64>(bytes) - 1) / static_cast<u64>(sector);
      for (u64 s = first; s <= last; ++s) {
        const u64 sector_addr = s * static_cast<u64>(sector);
        stats.l2_service_bytes += sector;
        if (kind == kAtomic) stats.atomic_rmw_bytes += sector;
        const auto r = l2_.access(sector_addr, is_write);
        if (r.dram_read_bytes > 0) dram_access(sector_addr, r.dram_read_bytes, fill_kind);
        if (r.dram_write_bytes > 0) dram_access(sector_addr, r.dram_write_bytes, 1);
      }
    }
    stats.l2 = l2_.stats();
  }

  void engine_read(u64 addr, i64 bytes) {
    const usize channel = channel_of(addr);
    ChannelStats& ch = stats.channels[channel];
    ++ch.requests;
    ch.read_bytes += bytes;
    stats.operand_bytes[tag_of(addr)] += bytes;
    dram_[channel].stream(bytes);
    sync_bank(channel);
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

  /// Interleaver::channel_of with a plain remainder.
  usize channel_of(u64 addr) const {
    const u64 g = (addr / static_cast<u64>(arch_.interleave_bytes)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<usize>((g >> 40) % static_cast<u64>(arch_.pseudo_channels));
  }

  void dram_access(u64 addr, i64 bytes, int kind) {
    const usize channel = channel_of(addr);
    ChannelStats& ch = stats.channels[channel];
    ++ch.requests;
    i64 effective = bytes;
    switch (kind) {
      case 0: ch.read_bytes += bytes; break;
      case 1: ch.write_bytes += bytes; break;
      default:
        effective = static_cast<i64>(static_cast<double>(bytes) * arch_.atomic_cost_multiplier);
        ch.atomic_bytes += effective;
        break;
    }
    stats.operand_bytes[tag_of(addr)] += effective;
    dram_[channel].access(addr, effective);
    sync_bank(channel);
  }

  void sync_bank(usize channel) {
    ChannelStats& ch = stats.channels[channel];
    ch.busy_ns = dram_[channel].busy_ns();
    ch.row_hits = dram_[channel].row_hits();
    ch.row_misses = dram_[channel].row_misses();
  }

  ArchConfig arch_;
  L2Cache l2_;
  std::vector<DramChannel> dram_;
  std::vector<Allocation> allocations_;
};

}  // namespace nmdt::reference
