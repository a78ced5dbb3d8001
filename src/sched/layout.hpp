// Data layout of the sparse input across FB partitions / pseudo
// channels (paper Sec. 6.1, Fig. 17).
//
// The conversion engines live beside the memory controllers and FB
// partitions do not communicate, so all CSC data needed for one tile
// must reside in one partition.  Placing a whole vertical strip in one
// partition makes every SM working on that strip pound the same
// partition (the "camping" problem, Fig. 17 left).  The paper's fix
// splits each strip horizontally into tiles rotated across partitions
// (Fig. 17 right) at the cost of a small per-switch handoff
// (next_fb_ptr + col_idx_frontier).
#pragma once

#include <span>

#include "gpusim/memory_system.hpp"
#include "util/types.hpp"

namespace nmdt {

enum class PlacementPolicy {
  kStripCamping,   ///< whole strip in one channel (naive, Fig. 17 left)
  kTileRotation,   ///< tiles of a strip rotate across channels (Fig. 17 right)
};

const char* placement_name(PlacementPolicy p);

class StripPlacement {
 public:
  StripPlacement(PlacementPolicy policy, int channels);

  /// Pseudo channel holding tile `tile_row` of strip `strip_id`.
  int channel_for(index_t strip_id, index_t tile_row) const;

  /// Per-switch handoff metadata in bytes: the col_idx_frontier of the
  /// strip's lanes plus the next_fb_ptr (Sec. 6.1).
  static i64 switch_handoff_bytes(index_t strip_width) {
    return static_cast<i64>(strip_width) * kIndexBytes + 8;
  }

 private:
  PlacementPolicy policy_;
  int channels_;
};

/// Camping metric: most-loaded-partition traffic over mean partition
/// traffic; 1.0 is perfectly balanced.
double partition_imbalance(const MemStats& stats, int fb_partitions);

}  // namespace nmdt
