// Sectored set-associative L2 cache model.
//
// NVIDIA L2s tag 128 B lines but fill 32 B sectors on demand; a miss on
// a resident line's missing sector costs a sector fill, not a line fill.
// Replacement is LRU per set.  This is the cache that gives C-stationary
// its "B strips can hit in LLC" advantage (Sec. 3.1.1) and that the
// paper's bandwidth simulation loads CSC metadata through (Sec. 5.1).
#pragma once

#include <vector>

#include "gpusim/arch.hpp"

namespace nmdt {

struct CacheStats {
  u64 accesses = 0;
  u64 sector_hits = 0;
  u64 sector_misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;

  bool operator==(const CacheStats&) const = default;

  double hit_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(sector_hits) / accesses;
  }
};

class L2Cache {
 public:
  explicit L2Cache(const ArchConfig& arch);

  struct AccessResult {
    bool hit = false;
    i64 dram_read_bytes = 0;   ///< sector fill on miss
    i64 dram_write_bytes = 0;  ///< dirty eviction writeback
  };

  /// Access one sector-aligned address (the memory system splits warp
  /// requests into sectors before calling this).
  AccessResult access(u64 addr, bool is_write);

  const CacheStats& stats() const { return stats_; }

  void reset();

  int num_sets() const { return num_sets_; }

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
  int sectors_per_line_;
  u64 access_clock_ = 0;
  std::vector<Line> lines_;  ///< num_sets_ * ways_
  CacheStats stats_;
};

}  // namespace nmdt
