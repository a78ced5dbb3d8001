#include "sched/layout.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace nmdt {

const char* placement_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kStripCamping: return "strip-camping";
    case PlacementPolicy::kTileRotation: return "tile-rotation";
  }
  return "unknown";
}

StripPlacement::StripPlacement(PlacementPolicy policy, int channels)
    : policy_(policy), channels_(channels) {
  NMDT_CHECK_CONFIG(channels > 0, "StripPlacement requires at least one channel");
}

int StripPlacement::channel_for(index_t strip_id, index_t tile_row) const {
  switch (policy_) {
    case PlacementPolicy::kStripCamping:
      return static_cast<int>(strip_id % channels_);
    case PlacementPolicy::kTileRotation:
      return static_cast<int>((strip_id + tile_row) % channels_);
  }
  return 0;
}

double partition_imbalance(const MemStats& stats, int fb_partitions) {
  NMDT_CHECK_CONFIG(fb_partitions > 0, "partition_imbalance requires partitions > 0");
  const i64 total = stats.total_dram_bytes();
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / fb_partitions;
  return static_cast<double>(stats.max_partition_bytes(fb_partitions)) / mean;
}

}  // namespace nmdt
