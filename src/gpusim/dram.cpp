#include "gpusim/dram.hpp"

#include <bit>

namespace nmdt {

DramChannelSim::DramChannelSim(const ArchConfig& arch)
    : ns_per_byte_(1.0 / arch.bw_per_channel_gbps),
      miss_penalty_ns_(arch.dram_row_miss_penalty_ns / arch.dram_bank_parallelism) {
  arch.validate();
  row_shift_ = std::countr_zero(static_cast<u64>(arch.dram_row_bytes));
  bank_shift_ = std::countr_zero(static_cast<u32>(arch.dram_banks_per_channel));
  open_row_.assign(static_cast<usize>(arch.dram_banks_per_channel), ~u64{0});
}

void DramChannelSim::stream(i64 bytes, ChannelStats& ch) const {
  if (bytes <= 0) return;
  ch.busy_ns += static_cast<double>(bytes) * ns_per_byte_;
  ++ch.row_hits;
}

}  // namespace nmdt
