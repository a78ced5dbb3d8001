#include "transform/engine.hpp"

#include <algorithm>
#include <bit>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transform/arena.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace nmdt {

namespace {

/// Post-conversion corruption injection: simulates the tile being
/// damaged in transit between the engine and the consuming SM.  The CRC
/// is stamped on the pristine tile first, so any flipped bit is caught
/// by verify_dcsr_tile at the consumption point.  At most one site is
/// installed at a time; the event key derives from the tile's stable
/// coordinates plus the retry attempt, never from thread identity.
template <class V>
void maybe_corrupt_tile(DcsrTileT<V>& tile, int attempt) {
  using fault::FaultSite;
  const u64 key = fault::mix(fault::mix(static_cast<u64>(tile.strip_id),
                                        static_cast<u64>(tile.row_begin)),
                             static_cast<u64>(attempt));
  const auto flip = [&](FaultSite site, void* data, usize bytes) {
    if (!fault::should_inject(site, key)) return;
    if (fault::flip_bit(data, bytes, key)) fault::note_injected();
  };
  flip(FaultSite::kTileRowId, tile.body.row_idx.data(),
       tile.body.row_idx.size() * sizeof(index_t));
  flip(FaultSite::kTileColIdx, tile.body.col_idx.data(),
       tile.body.col_idx.size() * sizeof(index_t));
  flip(FaultSite::kTileVal, tile.body.val.data(),
       tile.body.val.size() * sizeof(V));
}

}  // namespace

template <class V>
CscDeviceLayout CscDeviceLayout::allocate(const CscT<V>& csc, MemorySystem& mem) {
  CscDeviceLayout l;
  l.col_ptr_base = mem.allocate(static_cast<i64>(csc.col_ptr.size()) * kIndexBytes,
                                "A.csc.col_ptr");
  l.row_idx_base = mem.allocate(static_cast<i64>(csc.row_idx.size()) * kIndexBytes,
                                "A.csc.row_idx");
  l.val_base = mem.allocate(static_cast<i64>(csc.val.size() * sizeof(V)), "A.csc.val");
  return l;
}

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  requests += o.requests;
  steps += o.steps;
  elements += o.elements;
  comparator_ops += o.comparator_ops;
  dram_bytes_in += o.dram_bytes_in;
  xbar_bytes_out += o.xbar_bytes_out;
  return *this;
}

double EngineStats::busy_ns(const EngineHwModel& hw) const {
  // One pipeline beat per emitted DCSR row plus one beat of head/tail
  // per request (the paper argues head/tail effects are negligible —
  // one beat keeps empty-tile requests from being entirely free).
  return static_cast<double>(steps + requests) * hw.cycle_ns_sp;
}

template <class V>
StripCursor::StripCursor(const CscT<V>& csc, index_t strip_id, const TilingSpec& spec)
    : strip_id_(strip_id), col_begin_(strip_id * spec.strip_width) {
  spec.validate();
  NMDT_REQUIRE(strip_id >= 0 && col_begin_ < csc.cols,
               "strip_id out of range: " + std::to_string(strip_id));
  const index_t col_end = std::min<index_t>(col_begin_ + spec.strip_width, csc.cols);
  frontier_.reserve(static_cast<usize>(col_end - col_begin_));
  boundary_.reserve(frontier_.capacity());
  for (index_t c = col_begin_; c < col_end; ++c) {
    frontier_.push_back(csc.col_ptr[c]);
    boundary_.push_back(csc.col_ptr[c + 1]);
  }
}

StripCursor::Snapshot StripCursor::save() const {
  Snapshot s;
  NMDT_REQUIRE(frontier_.size() <= s.frontier.size(),
               "strip wider than the engine's lane count");
  s.watermark = watermark_;
  std::copy(frontier_.begin(), frontier_.end(), s.frontier.begin());
  return s;
}

void StripCursor::restore(const Snapshot& s) {
  watermark_ = s.watermark;
  std::copy_n(s.frontier.begin(), frontier_.size(), frontier_.begin());
}

ConversionEngine::ConversionEngine(EngineHwModel hw) : hw_(hw) {
  NMDT_CHECK_CONFIG(hw_.lanes > 0 && hw_.lanes <= 64,
                    "conversion engine supports 1..64 lanes");
}

template <class V>
void ConversionEngine::convert_tile_into(DcsrTileT<V>& out, const CscT<V>& csc,
                                         StripCursor& cursor, index_t row_start,
                                         const TilingSpec& spec, MemorySystem* mem,
                                         const CscDeviceLayout* layout,
                                         int pinned_channel, int fault_attempt) {
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  spec.validate();
  // Tile-granularity cancellation point: a strip conversion loop (online
  // kernel, offline tiling, planning) unwinds within one tile of a
  // cancellation request instead of finishing the whole strip.  The
  // arena scope below makes the unwind leak-free: tile scratch rewinds
  // with the stack.
  poll_cancellation();
  NMDT_REQUIRE(row_start >= 0 && row_start < csc.rows, "row_start out of range");
  NMDT_REQUIRE(row_start >= cursor.watermark(),
               "strip cursor used out of order (tile requests must be monotone)");
  NMDT_REQUIRE(cursor.lanes() <= hw_.lanes,
               "strip wider than the engine's lane count");
  obs::metrics().engine_tile_requests.add(1);
  obs::TraceSpan span("engine.convert_tile");
  const index_t row_end = std::min<index_t>(row_start + spec.tile_height, csc.rows);
  cursor.advance_watermark(row_end);
  const int lanes = cursor.lanes();

  out.strip_id = cursor.strip_id();
  out.row_begin = row_start;
  out.col_begin = cursor.col_begin();
  out.body.rows = row_end - row_start;
  out.body.cols = lanes;
  out.crc = 0;
  out.crc_valid = false;

  EngineStats local;
  ++local.requests;

  auto frontier = cursor.frontier();
  const auto boundary = cursor.boundary();

  // Request metadata: the SM's GetDCSRTile message plus the engine's
  // col_frontier/boundary registers are on-chip; only element fetches
  // touch DRAM.  The col_ptr arrays were read when the strip was
  // opened (frontier_ptr/boundary_ptr initialization, Fig. 14 step 1);
  // charge that on the first tile of the strip.
  const bool first_tile_of_strip = row_start == 0;
  if (first_tile_of_strip) {
    const i64 col_ptr_bytes = static_cast<i64>(lanes + 1) * kIndexBytes;
    local.dram_bytes_in += col_ptr_bytes;
    if (mem != nullptr && pinned_channel >= 0) {
      mem->engine_read_channel(pinned_channel, col_ptr_bytes, 1);
    } else if (mem != nullptr && layout != nullptr) {
      mem->engine_read(layout->col_ptr_base +
                           static_cast<u64>(cursor.col_begin()) * kIndexBytes,
                       col_ptr_bytes);
    }
  }

  // Tile scratch from the thread-local arena (rewound on scope exit):
  // the row buckets plus staging arrays sized by cheap upper bounds —
  // emitted rows are distinct coordinates in [row_start, row_end), and
  // emitted elements cannot exceed what is left of the strip.
  ConversionArena& arena = ConversionArena::local();
  const ConversionArena::Scope tile_scope(arena);
  const usize max_rows = static_cast<usize>(row_end - row_start);
  // bucket[r]: lanes whose frontier sits on tile row r; occupied: bit r
  // set ⇔ bucket[r] != 0.
  const auto bucket = arena.alloc<u64>(max_rows);
  const auto occupied = arena.alloc<u64>((max_rows + 63) / 64);
  std::fill(bucket.begin(), bucket.end(), u64{0});
  std::fill(occupied.begin(), occupied.end(), u64{0});
  // Place lane l by its frontier coordinate, which must be >= floor.
  const auto bucket_lane = [&](int l, index_t floor, const char* order_error) {
    if (frontier[l] >= boundary[l]) return;  // column exhausted
    const index_t row = csc.row_idx[frontier[l]];
    NMDT_REQUIRE(row >= floor, order_error);
    if (row >= row_end) return;  // belongs to a later tile
    const usize r = static_cast<usize>(row - row_start);
    bucket[r] |= u64{1} << l;
    occupied[r / 64] |= u64{1} << (r % 64);
  };

  // (1): load each lane's frontier coordinate once per tile.
  usize max_elems = 0;
  for (int l = 0; l < lanes; ++l) {
    max_elems += static_cast<usize>(boundary[l] - frontier[l]);
    bucket_lane(l, row_start, "strip cursor used out of order (element above tile)");
  }
  const auto row_idx_s = arena.alloc<index_t>(max_rows);
  const auto row_ptr_s = arena.alloc<index_t>(max_rows + 1);
  const auto col_idx_s = arena.alloc<index_t>(max_elems);
  const auto val_s = arena.alloc<V>(max_elems);
  usize nrows = 0;
  usize nelems = 0;
  row_ptr_s[0] = 0;

  // (2): the lowest occupied bucket is the comparator tree's minimum and
  // its lane mask the tree's tie bitvector.  A re-bucketed lane always
  // lands above the current row, so one ascending pass visits every row.
  for (usize w = 0; w < occupied.size(); ++w) {
    while (occupied[w] != 0) {
      const usize r = w * 64 + static_cast<usize>(std::countr_zero(occupied[w]));
      occupied[w] &= occupied[w] - 1;
      // (3): emit one DCSR row from those lanes, in ascending lane order,
      // and advance their frontiers.
      row_idx_s[nrows] = static_cast<index_t>(r);
      for (u64 mask = bucket[r]; mask != 0; mask &= mask - 1) {
        const int l = std::countr_zero(mask);
        const index_t src = frontier[l]++;
        col_idx_s[nelems] = l;
        val_s[nelems] = csc.val[src];
        ++nelems;
        if (mem != nullptr && pinned_channel < 0 && layout != nullptr) {
          mem->engine_read(layout->row_idx_base + static_cast<u64>(src) * kIndexBytes,
                           kIndexBytes);
          mem->engine_read(layout->val_base + static_cast<u64>(src) * static_cast<u64>(kVB),
                           kVB);
        }
        bucket_lane(l, row_start + static_cast<index_t>(r) + 1,
                    "CSC row indices must be strictly ascending within a column");
      }
      ++nrows;
      row_ptr_s[nrows] = static_cast<index_t>(nelems);
    }
  }

  // The Fig. 15b tree runs once per emitted row plus the final all-
  // invalid reduction, and its `lanes − 1` comparator units each count
  // one op per reduction whatever the lane validity.
  local.steps = nrows;
  local.elements = nelems;
  local.comparator_ops = static_cast<u64>(nrows + 1) * static_cast<u64>(lanes - 1);
  local.dram_bytes_in += static_cast<i64>(nelems) * (kIndexBytes + kVB);
  if (mem != nullptr && pinned_channel >= 0) {
    mem->engine_read_channel(pinned_channel, kIndexBytes + kVB, static_cast<i64>(nelems));
  }

  // Publish the staged rows into the caller's tile: clear-and-assign
  // keeps the vectors' capacity, so a reused tile allocates nothing
  // once warm (a fresh tile pays one exact-size allocation per array
  // instead of a push_back growth sequence).
  out.body.row_idx.assign(row_idx_s.data(), row_idx_s.data() + nrows);
  out.body.row_ptr.assign(row_ptr_s.data(), row_ptr_s.data() + nrows + 1);
  out.body.col_idx.assign(col_idx_s.data(), col_idx_s.data() + nelems);
  out.body.val.assign(val_s.data(), val_s.data() + nelems);

  // (4): stream the tile to the requesting SM over the crossbar.
  const i64 out_bytes =
      static_cast<i64>(nelems) * (kVB + kIndexBytes) +
      static_cast<i64>(nrows + 1 + nrows) * kIndexBytes;
  local.xbar_bytes_out += out_bytes;
  if (mem != nullptr) mem->xbar_transfer(out_bytes);

  stats_ += local;
  if (span.enabled()) {
    span.arg("strip", static_cast<i64>(cursor.strip_id()))
        .arg("row_begin", static_cast<i64>(row_start))
        .arg("rows_emitted", local.steps)
        .arg("elements", local.elements)
        .arg("dram_bytes_in", local.dram_bytes_in)
        .arg("xbar_bytes_out", local.xbar_bytes_out);
  }

  // Stamp the integrity fingerprint on the pristine tile, then give the
  // injection layer its shot at the in-transit copy.
  out.crc = dcsr_tile_crc(out);
  out.crc_valid = true;
  maybe_corrupt_tile(out, fault_attempt);
}

template <class V>
DcsrTileT<V> ConversionEngine::convert_tile_checked(const CscT<V>& csc,
                                                    StripCursor& cursor,
                                                    index_t row_start,
                                                    const TilingSpec& spec,
                                                    MemorySystem* mem,
                                                    const CscDeviceLayout* layout,
                                                    int pinned_channel) {
  DcsrTileT<V> tile;
  convert_tile_checked_into(tile, csc, cursor, row_start, spec, mem, layout,
                            pinned_channel);
  return tile;
}

template <class V>
void ConversionEngine::convert_tile_checked_into(DcsrTileT<V>& out, const CscT<V>& csc,
                                                 StripCursor& cursor, index_t row_start,
                                                 const TilingSpec& spec,
                                                 MemorySystem* mem,
                                                 const CscDeviceLayout* layout,
                                                 int pinned_channel) {
  const StripCursor::Snapshot snap = cursor.save();
  convert_tile_into(out, csc, cursor, row_start, spec, mem, layout, pinned_channel, 0);
  if (verify_dcsr_tile(out)) return;

  // Integrity failure at the consumption point.  The first attempt's
  // conversion itself was fault-free (corruption is applied to the
  // output copy), so its simulated DRAM/crossbar traffic and engine
  // counters already match the fault-free run exactly; retries therefore
  // run with no MemorySystem and the engine stats pinned back to the
  // post-attempt-0 value, keeping a recovered run bit-identical.  Each
  // retry refills `out` through a fresh arena scope — the rewound arena
  // hands back the same scratch bytes attempt after attempt.
  const EngineStats pinned = stats_;
  for (int attempt = 1; attempt <= fault::kMaxRetries; ++attempt) {
    fault::note_detected();
    obs::TraceSpan span("fault.retry");
    span.arg("site", "dcsr_tile")
        .arg("strip", static_cast<i64>(cursor.strip_id()))
        .arg("row_begin", static_cast<i64>(row_start))
        .arg("attempt", attempt);
    cursor.restore(snap);
    convert_tile_into(out, csc, cursor, row_start, spec, nullptr, nullptr, -1, attempt);
    stats_ = pinned;
    if (verify_dcsr_tile(out)) {
      fault::note_recovered();
      return;
    }
  }
  fault::note_detected();
  fault::note_unrecovered();
  throw FaultError("DCSR tile integrity check failed after " +
                   std::to_string(fault::kMaxRetries) + " reconversions (strip " +
                   std::to_string(cursor.strip_id()) + ", rows from " +
                   std::to_string(row_start) + ")");
}

template <class V>
std::vector<DcsrTileT<V>> ConversionEngine::convert_strip(const CscT<V>& csc,
                                                          index_t strip_id,
                                                          const TilingSpec& spec,
                                                          MemorySystem* mem,
                                                          const CscDeviceLayout* layout) {
  StripCursor cursor(csc, strip_id, spec);
  std::vector<DcsrTileT<V>> tiles;
  ConversionArena::local().reset();
  for (index_t row_start = 0; row_start < csc.rows; row_start += spec.tile_height) {
    tiles.push_back(convert_tile_checked(csc, cursor, row_start, spec, mem, layout));
  }
  return tiles;
}

#define NMDT_INSTANTIATE_ENGINE(V)                                                     \
  template CscDeviceLayout CscDeviceLayout::allocate(const CscT<V>&, MemorySystem&);   \
  template StripCursor::StripCursor(const CscT<V>&, index_t, const TilingSpec&);       \
  template void ConversionEngine::convert_tile_into(                                   \
      DcsrTileT<V>&, const CscT<V>&, StripCursor&, index_t, const TilingSpec&,         \
      MemorySystem*, const CscDeviceLayout*, int, int);                                \
  template DcsrTileT<V> ConversionEngine::convert_tile_checked(                        \
      const CscT<V>&, StripCursor&, index_t, const TilingSpec&, MemorySystem*,         \
      const CscDeviceLayout*, int);                                                    \
  template void ConversionEngine::convert_tile_checked_into(                           \
      DcsrTileT<V>&, const CscT<V>&, StripCursor&, index_t, const TilingSpec&,         \
      MemorySystem*, const CscDeviceLayout*, int);                                     \
  template std::vector<DcsrTileT<V>> ConversionEngine::convert_strip(                  \
      const CscT<V>&, index_t, const TilingSpec&, MemorySystem*,                       \
      const CscDeviceLayout*)

NMDT_INSTANTIATE_ENGINE(float);
NMDT_INSTANTIATE_ENGINE(double);
NMDT_INSTANTIATE_ENGINE(bf16_t);

#undef NMDT_INSTANTIATE_ENGINE

}  // namespace nmdt
