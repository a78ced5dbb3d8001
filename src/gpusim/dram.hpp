// Per-pseudo-channel DRAM bank/row-buffer timing.
//
// A flat bytes/bandwidth model treats all access patterns alike; real
// HBM2 serves row-buffer hits at the pin rate but pays
// precharge+activate on row misses, partially hidden by bank-level
// parallelism.  This is exactly the axis the paper's formats sit on:
// the engine's CSC column walks are sequential (row-buffer friendly)
// while an SM chasing scattered B rows misses often.  The model keeps
// one open row per bank and books each access's channel busy time and
// row hit or miss into that channel's ChannelStats:
//
//   busy += bytes / pin_bandwidth  (+ row_miss_penalty / bank_parallelism on miss)
//
// Row size and bank count are powers of two (ArchConfig::validate), so
// the row/bank split of an address is two shifts and a mask.
#pragma once

#include <vector>

#include "gpusim/arch.hpp"

namespace nmdt {

/// One pseudo channel's DRAM traffic (booked by the memory system) and
/// bank timing (booked by DramChannelSim).
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

class DramChannelSim {
 public:
  explicit DramChannelSim(const ArchConfig& arch);

  /// Addressed access (row tracking at `dram_row_bytes` granularity).
  void access(u64 addr, i64 bytes, ChannelStats& ch) {
    if (bytes <= 0) return;
    ch.busy_ns += static_cast<double>(bytes) * ns_per_byte_;
    const u64 global_row = addr >> row_shift_;
    const usize bank = static_cast<usize>(global_row & (open_row_.size() - 1));
    const u64 row = global_row >> bank_shift_;
    if (open_row_[bank] == row) {
      ++ch.row_hits;
    } else {
      ++ch.row_misses;
      open_row_[bank] = row;
      ch.busy_ns += miss_penalty_ns_;
    }
  }

  /// Sequential stream with guaranteed row locality (the engine's
  /// prefetch-buffered column bursts): pure transfer time.
  void stream(i64 bytes, ChannelStats& ch) const;

 private:
  int row_shift_;
  int bank_shift_;
  double ns_per_byte_;
  double miss_penalty_ns_;  ///< already divided by bank parallelism
  std::vector<u64> open_row_;  ///< per bank; sentinel ~0 = closed
};

}  // namespace nmdt
