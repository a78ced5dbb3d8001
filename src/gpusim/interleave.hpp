// Physical-address interleaving across HBM2 pseudo channels.
//
// `interleave_bytes` granules map to channels through a hash of the
// granule index — the scheme real GPUs use (post-Fermi "partition
// camping" fixes) so that strided or structured access patterns spread
// evenly instead of resonating with the channel count.  A given address
// always maps to the same channel (it is physical), which is what makes
// hot single lines a per-channel load.  Channels group into FB
// partitions of consecutive channel ids (partition_imbalance,
// sched/layout.hpp), the granularity at which the Sec. 6.1 camping
// problem shows up.
#pragma once

#include "gpusim/arch.hpp"
#include "util/fastmod.hpp"

namespace nmdt {

class Interleaver {
 public:
  explicit Interleaver(const ArchConfig& arch);

  int channel_of(u64 addr) const {
    u64 g = addr >> granule_shift_;
    g *= 0x9e3779b97f4a7c15ULL;  // Fibonacci hash: decorrelate strides
    return static_cast<int>(channel_mod_(static_cast<u32>(g >> 40)));  // g >> 40 < 2^24
  }

  i64 granule_bytes() const { return i64{1} << granule_shift_; }

 private:
  FastMod32 channel_mod_{1};  ///< % pseudo channels
  int granule_shift_;
};

}  // namespace nmdt
