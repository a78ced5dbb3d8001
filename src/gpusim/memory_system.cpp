#include "gpusim/memory_system.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt {

i64 MemStats::total_dram_bytes() const {
  i64 total = 0;
  for (const auto& c : channels) total += c.total_bytes();
  return total;
}

i64 MemStats::max_channel_bytes() const {
  i64 worst = 0;
  for (const auto& c : channels) worst = std::max(worst, c.total_bytes());
  return worst;
}

double MemStats::max_channel_service_ns(double bw_per_channel_gbps) const {
  double worst = 0.0;
  for (const auto& c : channels) {
    const double transfer = static_cast<double>(c.total_bytes()) / bw_per_channel_gbps;
    worst = std::max(worst, std::max(transfer, c.busy_ns));
  }
  return worst;
}

double MemStats::dram_row_hit_rate() const {
  u64 hits = 0, misses = 0;
  for (const auto& c : channels) {
    hits += c.row_hits;
    misses += c.row_misses;
  }
  return hits + misses == 0 ? 1.0
                            : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

i64 MemStats::max_partition_bytes(int fb_partitions) const {
  if (fb_partitions <= 0 || channels.empty()) return 0;
  const int per = static_cast<int>(channels.size()) / fb_partitions;
  i64 worst = 0;
  for (int p = 0; p < fb_partitions; ++p) {
    i64 sum = 0;
    for (int c = 0; c < per; ++c) sum += channels[static_cast<usize>(p) * per + c].total_bytes();
    worst = std::max(worst, sum);
  }
  return worst;
}

MemStats& MemStats::operator+=(const MemStats& o) {
  if (channels.size() < o.channels.size()) channels.resize(o.channels.size());
  for (usize i = 0; i < o.channels.size(); ++i) {
    channels[i].read_bytes += o.channels[i].read_bytes;
    channels[i].write_bytes += o.channels[i].write_bytes;
    channels[i].atomic_bytes += o.channels[i].atomic_bytes;
    channels[i].requests += o.channels[i].requests;
    channels[i].busy_ns += o.channels[i].busy_ns;
    channels[i].row_hits += o.channels[i].row_hits;
    channels[i].row_misses += o.channels[i].row_misses;
  }
  l2.accesses += o.l2.accesses;
  l2.sector_hits += o.l2.sector_hits;
  l2.sector_misses += o.l2.sector_misses;
  l2.evictions += o.l2.evictions;
  l2.writebacks += o.l2.writebacks;
  xbar_bytes += o.xbar_bytes;
  l2_service_bytes += o.l2_service_bytes;
  atomic_rmw_bytes += o.atomic_rmw_bytes;
  for (const auto& [tag, bytes] : o.operand_bytes) operand_bytes[tag] += bytes;
  return *this;
}

MemorySystem::MemorySystem(const ArchConfig& arch, MemMode mode)
    : arch_(arch),
      mode_(mode),
      interleave_(arch),
      sector_shift_(std::countr_zero(static_cast<u32>(arch.l2_sector_bytes))),
      line_sector_shift_(std::countr_zero(static_cast<u32>(arch.l2_line_bytes)) - sector_shift_) {
  arch_.validate();
  stats_.channels.assign(static_cast<usize>(arch.pseudo_channels), ChannelStats{});
  if (mode_ == MemMode::kCacheSim) {
    l2_ = std::make_unique<L2Cache>(arch_);
    dram_.assign(static_cast<usize>(arch.pseudo_channels), DramChannelSim(arch_));
  }
}

u64 MemorySystem::allocate(i64 bytes, const std::string& name) {
  NMDT_REQUIRE(bytes >= 0, "allocation size must be non-negative: " + name);
  const u64 granule = static_cast<u64>(interleave_.granule_bytes());
  const u64 base = next_base_;
  const u64 padded = (static_cast<u64>(bytes) + granule - 1) / granule * granule;
  next_base_ += padded + granule;  // guard granule between arrays
  // Operand tag = the name's first dotted component ("A.row_ptr" → "A").
  const auto dot = name.find('.');
  regions_.push_back({base, base + padded, name.substr(0, dot)});
  return base;
}

i64& MemorySystem::find_operand_slot(u64 addr) {
  auto it = std::upper_bound(regions_.begin(), regions_.end(), addr,
                             [](u64 a, const Region& r) { return a < r.begin; });
  const Region* region = nullptr;
  if (it != regions_.begin()) {
    --it;
    if (addr < it->end) region = &*it;
  }
  if (region != nullptr) {
    cached_begin_ = region->begin;
    cached_end_ = region->end;
    cached_slot_ = &stats_.operand_bytes[region->tag];
  } else {
    static const std::string kUnknown = "?";
    cached_begin_ = addr;
    cached_end_ = addr + 1;
    cached_slot_ = &stats_.operand_bytes[kUnknown];
  }
  return *cached_slot_;
}

void MemorySystem::merge(const MemorySystem& other) {
  NMDT_REQUIRE(other.mode_ == mode_ &&
                   other.stats_.channels.size() == stats_.channels.size(),
               "MemorySystem::merge requires matching mode and channel geometry");
  // Shard flush point: a shard-local memory system drains its simulated
  // traffic into the canonical one.
  obs::metrics().mem_merges.add(1);
  obs::TraceSpan span("mem.merge");
  stats_ += other.stats_;
  if (span.enabled()) {
    span.arg("channels", static_cast<i64>(stats_.channels.size()))
        .arg("merged_dram_bytes", other.stats_.total_dram_bytes())
        .arg("total_dram_bytes", stats_.total_dram_bytes());
  }
}

void MemorySystem::dram_access(u64 addr, i64 bytes, int kind) {
  const usize channel = static_cast<usize>(interleave_.channel_of(addr));
  ChannelStats& ch = stats_.channels[channel];
  ++ch.requests;
  i64 effective = bytes;
  switch (kind) {
    case 0: ch.read_bytes += bytes; break;
    case 1: ch.write_bytes += bytes; break;
    default:
      effective =
          static_cast<i64>(static_cast<double>(bytes) * arch_.atomic_cost_multiplier);
      ch.atomic_bytes += effective;
      break;
  }
  operand_slot(addr) += effective;
  dram_[channel].access(addr, effective, ch);
}

void MemorySystem::counting_access(u64 addr, i64 bytes, int kind) {
  // One warp request, granule-aggregated: every sector of a granule
  // hashes to the same channel (Interleaver::channel_of depends only on
  // addr >> granule_shift) and lies in the same allocation (regions are
  // granule-aligned with a guard granule between them), so a run of n
  // sectors inside one granule books the same totals as n per-sector
  // events — with one channel hash and one operand lookup.
  if (bytes <= 0) return;
  const i64 sector = arch_.l2_sector_bytes;
  const u64 granule_mask = ~(static_cast<u64>(interleave_.granule_bytes()) - 1);
  const u64 first = addr >> sector_shift_;
  const u64 last = (addr + static_cast<u64>(bytes) - 1) >> sector_shift_;
  const i64 sectors = static_cast<i64>(last - first + 1);
  stats_.l2_service_bytes += sector * sectors;
  const i64 per_sector =
      kind == 2 ? static_cast<i64>(static_cast<double>(sector) * arch_.atomic_cost_multiplier)
                : sector;
  if (kind == 2) stats_.atomic_rmw_bytes += sector * sectors;
  u64 s = first;
  while (s <= last) {
    const u64 sector_addr = s << sector_shift_;
    // First sector index beyond this granule.
    const u64 granule_end =
        ((sector_addr & granule_mask) + static_cast<u64>(interleave_.granule_bytes())) >>
        sector_shift_;
    const u64 run_end = granule_end <= last ? granule_end : last + 1;
    const i64 n = static_cast<i64>(run_end - s);
    ChannelStats& ch =
        stats_.channels[static_cast<usize>(interleave_.channel_of(sector_addr))];
    ch.requests += n;
    switch (kind) {
      case 0: ch.read_bytes += per_sector * n; break;
      case 1: ch.write_bytes += per_sector * n; break;
      default: ch.atomic_bytes += per_sector * n; break;
    }
    operand_slot(sector_addr) += per_sector * n;
    s = run_end;
  }
}

void MemorySystem::request(Kind kind, u64 addr, i64 bytes) {
  if (mode_ == MemMode::kCounting) {
    counting_access(addr, bytes, kind);
    return;
  }
  // Atomics resolve at the LLC: partial C tiles live in L2 (Sec. 3.1.1)
  // so repeated accumulation hits there, but every RMW consumes
  // atomic_cost_multiplier× LLC bandwidth (tracked in atomic_rmw_bytes
  // and charged by the timing model).  Only misses/writebacks reach
  // DRAM — an atomic's fill is charged at the atomic (2×) rate there.
  if (bytes <= 0) return;
  const i64 sector = arch_.l2_sector_bytes;
  const bool is_write = kind != kLoad;
  const int fill_kind = kind == kAtomic ? 2 : 0;
  const u64 first = addr >> sector_shift_;
  const u64 last = (addr + static_cast<u64>(bytes) - 1) >> sector_shift_;
  const i64 sectors = static_cast<i64>(last - first + 1);
  stats_.l2_service_bytes += sector * sectors;
  if (kind == kAtomic) stats_.atomic_rmw_bytes += sector * sectors;
  // One L2 lookup per line, then the DRAM bookings in per-sector order:
  // each missed sector's fill, and a dirty victim's writeback right
  // after the line's first fill, at that sector's address.
  const u64 in_line = (u64{1} << line_sector_shift_) - 1;
  for (u64 s = first; s <= last;) {
    const u64 line = s >> line_sector_shift_;
    const u64 line_last = std::min(last, s | in_line);
    const auto r = l2_->access_line(line, static_cast<int>(s & in_line),
                                    static_cast<int>(line_last - s + 1), is_write, stats_.l2);
    i64 writeback = r.writeback_bytes;
    for (u32 fills = r.fill_mask; fills != 0; fills &= fills - 1) {
      const u64 sector_in_line = static_cast<u64>(std::countr_zero(fills));
      const u64 sector_addr = ((line << line_sector_shift_) | sector_in_line) << sector_shift_;
      dram_access(sector_addr, sector, fill_kind);
      if (writeback > 0) dram_access(sector_addr, writeback, 1);
      writeback = 0;
    }
    s = line_last + 1;
  }
}

void MemorySystem::engine_read(u64 addr, i64 bytes) {
  // The engine's per-column prefetch buffer turns its element stream
  // into full-sector sequential bursts: exact byte count, row-buffer
  // friendly.
  const usize channel = static_cast<usize>(interleave_.channel_of(addr));
  ChannelStats& ch = stats_.channels[channel];
  ++ch.requests;
  ch.read_bytes += bytes;
  operand_slot(addr) += bytes;
  if (!dram_.empty()) dram_[channel].stream(bytes, ch);
}

void MemorySystem::engine_read_channel(int channel, i64 bytes_each, i64 count,
                                       const char* tag) {
  NMDT_REQUIRE(channel >= 0 && channel < static_cast<int>(stats_.channels.size()),
               "engine_read_channel: channel out of range");
  if (count <= 0) return;
  ChannelStats& ch = stats_.channels[static_cast<usize>(channel)];
  ch.requests += count;
  ch.read_bytes += bytes_each * count;
  stats_.operand_bytes[tag] += bytes_each * count;
  if (!dram_.empty()) {
    const DramChannelSim& bank_model = dram_[static_cast<usize>(channel)];
    for (i64 i = 0; i < count; ++i) bank_model.stream(bytes_each, ch);
  }
}

void MemorySystem::xbar_transfer(i64 bytes) { stats_.xbar_bytes += bytes; }

}  // namespace nmdt
