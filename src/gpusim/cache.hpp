// Sectored set-associative L2 cache model.
//
// NVIDIA L2s tag 128 B lines but fill 32 B sectors on demand; a miss on
// a resident line's missing sector costs a sector fill, not a line fill.
// Replacement is LRU per set.  This is the cache that gives C-stationary
// its "B strips can hit in LLC" advantage (Sec. 3.1.1) and that the
// paper's bandwidth simulation loads CSC metadata through (Sec. 5.1).
//
// Storage is flat.  Each (set, way) has a tag word keyed by the full
// line address + 1 (0 = empty, so a lookup needs no division), and its
// valid-sector, dirty-sector and LRU-stamp words sit in parallel arrays.
// Each set remembers its most-recently-used way, which a lookup probes
// first.  A set's tags are cleared on its first touch, so building a
// cache allocates the line arrays but never zeroes them.
//
// A warp request is looked up once per 128 B line it touches
// (`access_line`), and the statistics are booked into the caller's
// CacheStats.  That equals one access per 32 B sector in order: the
// sectors after the first always find the line resident, and stamps
// only order a set's lines, so one stamp per line access leaves the
// LRU order of n per-sector stamps ("Serial performance" in DESIGN.md).
#pragma once

#include <memory>
#include <vector>

#include "gpusim/arch.hpp"
#include "util/fastmod.hpp"

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

  struct LineResult {
    u32 fill_mask = 0;        ///< touched sectors that missed: one DRAM fill each
    i64 writeback_bytes = 0;  ///< the evicted line's dirty sectors (0 = none)
  };

  /// Access sectors [first_sector, first_sector + n) of line `line`
  /// (an address divided by l2_line_bytes), booking into `stats`.  A
  /// write dirties the touched sectors.  The writeback belongs after the
  /// first fill: only a line miss evicts, and then every touched sector
  /// fills.
  LineResult access_line(u64 line, int first_sector, int n, bool is_write, CacheStats& stats);

 private:
  /// Per-set head: the way probed first, and whether the set's tags
  /// have been cleared yet.
  struct SetHead {
    u8 mru = 0;
    bool live = false;
  };

  usize set_of(u64 line) const {
    return line <= 0xffffffffu ? set_mod_(static_cast<u32>(line))
                               : static_cast<usize>(line % num_sets_);
  }

  int ways_;
  int sector_shift_;
  u64 num_sets_;          ///< evaluation_config's set counts are not powers of two
  FastMod32 set_mod_{1};  ///< % num_sets_ for lines below 2^32
  u64 clock_ = 0;         ///< one tick per line access
  std::vector<SetHead> heads_;
  std::unique_ptr<u64[]> tags_;    ///< num_sets_ * ways_, line + 1 (0 = empty)
  std::unique_ptr<u64[]> stamps_;  ///< LRU stamp: clock at the last access (distinct)
  std::unique_ptr<u32[]> valid_;   ///< sector bitmaps
  std::unique_ptr<u32[]> dirty_;
};

}  // namespace nmdt
