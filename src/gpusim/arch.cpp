#include "gpusim/arch.hpp"

#include "util/error.hpp"

namespace nmdt {

namespace {

bool pow2(i64 v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

void ArchConfig::validate() const {
  NMDT_CHECK_CONFIG(num_sms > 0, "num_sms must be positive");
  NMDT_CHECK_CONFIG(warp_size > 0, "warp_size must be positive");
  NMDT_CHECK_CONFIG(issue_slots_per_sm > 0, "issue_slots_per_sm must be positive");
  NMDT_CHECK_CONFIG(issue_efficiency > 0.0 && issue_efficiency <= 1.0,
                    "issue_efficiency must be in (0, 1]");
  NMDT_CHECK_CONFIG(core_clock_ghz > 0, "core_clock_ghz must be positive");
  NMDT_CHECK_CONFIG(l2_bytes > 0, "l2_bytes must be positive");
  NMDT_CHECK_CONFIG(pow2(l2_line_bytes) && pow2(l2_sector_bytes),
                    "l2_line_bytes and l2_sector_bytes must be positive powers of two");
  NMDT_CHECK_CONFIG(l2_line_bytes % l2_sector_bytes == 0,
                    "l2_line_bytes must be a multiple of l2_sector_bytes");
  NMDT_CHECK_CONFIG(l2_line_bytes / l2_sector_bytes <= 32,
                    "sector bitmap limited to 32 sectors per line");
  NMDT_CHECK_CONFIG(l2_ways > 0 && l2_ways <= kMaxL2Ways, "l2_ways must be in [1, 256]");
  NMDT_CHECK_CONFIG(l2_bytes % (static_cast<i64>(l2_ways) * l2_line_bytes) == 0,
                    "l2_bytes must divide into ways*line sets");
  NMDT_CHECK_CONFIG(pseudo_channels > 0, "pseudo_channels must be positive");
  NMDT_CHECK_CONFIG(fb_partitions > 0 && pseudo_channels % fb_partitions == 0,
                    "pseudo_channels must be a multiple of fb_partitions");
  NMDT_CHECK_CONFIG(bw_per_channel_gbps > 0, "bw_per_channel_gbps must be positive");
  NMDT_CHECK_CONFIG(pow2(interleave_bytes),
                    "interleave_bytes must be a power of two");
  NMDT_CHECK_CONFIG(pow2(dram_banks_per_channel),
                    "dram_banks_per_channel must be a positive power of two");
  NMDT_CHECK_CONFIG(pow2(dram_row_bytes),
                    "dram_row_bytes must be a positive power of two");
  NMDT_CHECK_CONFIG(atomic_cost_multiplier >= 1.0, "atomic_cost_multiplier must be >= 1");
}

ArchConfig ArchConfig::gv100() {
  ArchConfig c;  // defaults are the GV100 numbers
  c.validate();
  return c;
}

ArchConfig ArchConfig::a100() {
  ArchConfig c;
  c.name = "A100";
  c.num_sms = 108;
  c.core_clock_ghz = 1.41;
  c.peak_fp32_tflops = 19.5;
  c.shared_mem_per_sm = 164 * 1024;
  c.l2_bytes = 40 * 1024 * 1024;
  c.l2_ways = 16;
  c.fb_partitions = 10;
  c.pseudo_channels = 80;          // 5 HBM2e stacks × 16 pseudo channels
  c.bw_per_channel_gbps = 19.44;   // 1555 GB/s aggregate
  c.die_area_mm2 = 826.0;
  c.tdp_watts = 400.0;
  c.idle_watts = 40.0;
  c.xbar_bandwidth_gbps = 5000.0;
  c.validate();
  return c;
}

ArchConfig ArchConfig::tu116() {
  ArchConfig c;
  c.name = "TU116";
  c.num_sms = 24;
  c.core_clock_ghz = 1.53;
  c.peak_fp32_tflops = 4.6;
  c.shared_mem_per_sm = 64 * 1024;
  c.l2_bytes = 1536 * 1024;
  c.fb_partitions = 6;
  c.pseudo_channels = 24;     // 24 × 16-bit GDDR6 channels (Sec. 5.3)
  c.bw_per_channel_gbps = 12.0;
  c.die_area_mm2 = 284.0;
  c.tdp_watts = 125.0;
  c.idle_watts = 12.0;
  c.xbar_bandwidth_gbps = 1000.0;
  c.validate();
  return c;
}

}  // namespace nmdt
