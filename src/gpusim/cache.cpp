#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace nmdt {

static_assert(kMaxL2Ways - 1 <= 0xff, "SetHead::mru must hold every way index");

L2Cache::L2Cache(const ArchConfig& arch)
    : ways_(arch.l2_ways), sector_shift_(std::countr_zero(static_cast<u32>(arch.l2_sector_bytes))) {
  arch.validate();
  num_sets_ = static_cast<u64>(arch.l2_bytes / (static_cast<i64>(ways_) * arch.l2_line_bytes));
  NMDT_CHECK_CONFIG(num_sets_ <= 0xffffffffu, "L2 set count must fit in 32 bits");
  set_mod_ = FastMod32(static_cast<u32>(num_sets_));
  const usize lines = static_cast<usize>(num_sets_) * static_cast<usize>(ways_);
  heads_.resize(static_cast<usize>(num_sets_));
  tags_ = std::make_unique_for_overwrite<u64[]>(lines);
  stamps_ = std::make_unique_for_overwrite<u64[]>(lines);
  valid_ = std::make_unique_for_overwrite<u32[]>(lines);
  dirty_ = std::make_unique_for_overwrite<u32[]>(lines);
}

L2Cache::LineResult L2Cache::access_line(u64 line, int first_sector, int n, bool is_write,
                                         CacheStats& stats) {
  const u32 mask = static_cast<u32>((u64{1} << n) - 1) << first_sector;
  const u64 key = line + 1;
  stats.accesses += static_cast<u64>(n);
  ++clock_;

  const usize set = set_of(line);
  SetHead& head = heads_[set];
  const usize base = set * static_cast<usize>(ways_);
  u64* const tags = &tags_[base];
  if (!head.live) {
    std::fill_n(tags, ways_, u64{0});
    head.live = true;
  }

  int way = head.mru;
  if (tags[way] != key) {
    way = 0;
    while (way < ways_ && tags[way] != key) ++way;
  }
  if (way < ways_) {
    // Line resident: the touched sectors it holds hit, the rest fill.
    const usize at = base + static_cast<usize>(way);
    const u32 fills = mask & ~valid_[at];
    stats.sector_misses += static_cast<u64>(std::popcount(fills));
    stats.sector_hits += static_cast<u64>(n - std::popcount(fills));
    valid_[at] |= mask;
    if (is_write) dirty_[at] |= mask;
    stamps_[at] = clock_;
    head.mru = static_cast<u8>(way);
    return {fills, 0};
  }

  // Line miss: every touched sector fills; the victim is an empty way
  // if the set has one, else the least recently used line (stamps are
  // distinct, so the LRU line is unique and no statistic depends on
  // which empty way is taken).
  stats.sector_misses += static_cast<u64>(n);
  LineResult res{mask, 0};
  int victim = 0;
  for (int w = 0; w < ways_; ++w) {
    if (tags[w] == 0) {
      victim = w;
      break;
    }
    if (stamps_[base + static_cast<usize>(w)] < stamps_[base + static_cast<usize>(victim)])
      victim = w;
  }
  const usize at = base + static_cast<usize>(victim);
  if (tags[victim] != 0) {
    ++stats.evictions;
    if (dirty_[at] != 0) {
      ++stats.writebacks;
      res.writeback_bytes = static_cast<i64>(std::popcount(dirty_[at])) << sector_shift_;
    }
  }
  tags[victim] = key;
  valid_[at] = mask;
  dirty_[at] = is_write ? mask : 0;
  stamps_[at] = clock_;
  head.mru = static_cast<u8>(victim);
  return res;
}

}  // namespace nmdt
