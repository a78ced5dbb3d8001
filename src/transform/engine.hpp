// The near-memory CSC→DCSR conversion engine (paper Sec. 4.2).
//
// Functional model of the walk-through in Fig. 13 / datapath in Fig. 14.
// The hardware steps map onto convert_tile_into as follows:
//  (1) frontier_ptr/boundary_ptr come from CSC col_ptr when the strip is
//      opened (StripCursor); each tile request loads every lane's
//      frontier coordinate once and drops the live lanes into a
//      per-row bucket — an array of tile_height u64 lane masks plus a
//      row-occupancy bitset,
//  (2) the comparator tree's minimum coordinate and tie bitvector are
//      the lowest occupied bucket (countr_zero over the bitset) and its
//      lane mask — the same answer comparator_tree_min (Fig. 15b) gives
//      over the 64 lane registers,
//  (3) those lanes' elements are emitted as one DCSR row (row_idx = min
//      coordinate, row_ptr incremented by popcount, col_idx = lane ids
//      in ascending order); only the advanced lanes reload their
//      frontier and are re-bucketed,
//  (4) repeat until no bucket is left, i.e. every lane has passed the
//      tile's row range; the tile streams to the SM over the crossbar.
//
// A tile costs O(lanes + elements + rows) host work.  The simulated
// accounting is the hardware's: the tree books `lanes − 1` comparator
// ops per reduction (one per emitted row plus the final all-invalid
// one), and every element is one DRAM read.
//
// One engine step ⇔ one emitted DCSR row ⇔ one pipeline beat of
// cycle_ns (0.588 ns single precision, Sec. 5.3), which is the paper's
// worst-case throughput anchor (one 8-byte element per beat = the
// 13.6 GB/s a pseudo channel can deliver).
//
// The engine reads DRAM directly (it sits beside the memory controller)
// and streams its output to the requesting SM across the crossbar; both
// are accounted in the supplied MemorySystem.
#pragma once

#include <algorithm>
#include <array>
#include <span>

#include "formats/csc.hpp"
#include "formats/tiling.hpp"
#include "gpusim/memory_system.hpp"
#include "transform/hw_model.hpp"

namespace nmdt {

/// Device placement of the CSC arrays (for DRAM traffic attribution).
struct CscDeviceLayout {
  u64 col_ptr_base = 0;
  u64 row_idx_base = 0;
  u64 val_base = 0;

  /// Allocate the three arrays in `mem` for matrix `csc` (value array
  /// sized at the stored element width sizeof(V)).
  template <class V>
  static CscDeviceLayout allocate(const CscT<V>& csc, MemorySystem& mem);
};

struct EngineStats {
  u64 requests = 0;         ///< GetDCSRTile invocations
  u64 steps = 0;            ///< comparator beats = DCSR rows emitted
  u64 elements = 0;         ///< non-zeros converted
  u64 comparator_ops = 0;
  i64 dram_bytes_in = 0;    ///< CSC data pulled from DRAM
  i64 xbar_bytes_out = 0;   ///< DCSR tiles delivered to SMs

  bool operator==(const EngineStats&) const = default;

  EngineStats& operator+=(const EngineStats& o);

  /// Engine busy time under the Sec. 5.3 pipeline model.
  double busy_ns(const EngineHwModel& hw) const;
};

/// Per-strip conversion cursor: the col_frontier of Fig. 11/13, absolute
/// indices into the CSC row_idx/val arrays, one per lane.  Sequential
/// tile requests down a strip resume from where the previous request
/// stopped — the stateful-but-cheap design the CSC baseline enables.
class StripCursor {
 public:
  /// Open strip `strip_id` of `csc`: frontier[l] = col_ptr[c0 + l].
  /// The cursor holds indices only, so one cursor type serves every
  /// value precision.
  template <class V>
  StripCursor(const CscT<V>& csc, index_t strip_id, const TilingSpec& spec);

  index_t strip_id() const { return strip_id_; }
  index_t col_begin() const { return col_begin_; }
  int lanes() const { return static_cast<int>(frontier_.size()); }

  std::span<index_t> frontier() { return frontier_; }
  std::span<const index_t> boundary() const { return boundary_; }

  /// First row the next tile request may start at (tile requests must
  /// walk down the strip monotonically — the stateful-conversion
  /// contract of Sec. 4.1).
  index_t watermark() const { return watermark_; }
  void advance_watermark(index_t row_end) { watermark_ = std::max(watermark_, row_end); }

  /// Resumable cursor state (boundary_ is immutable, so frontier and
  /// watermark are the whole story).  Recovery paths snapshot before a
  /// tile conversion and restore to re-run it after an integrity
  /// failure.  Fixed-size, so a checked tile conversion takes its
  /// snapshot without touching the heap; save() throws for a strip
  /// wider than the 64 lanes an engine can have.
  struct Snapshot {
    index_t watermark = 0;
    std::array<index_t, 64> frontier{};
  };
  Snapshot save() const;
  void restore(const Snapshot& s);

 private:
  index_t strip_id_;
  index_t col_begin_;
  index_t watermark_ = 0;
  std::vector<index_t> frontier_;  ///< next unconsumed element per lane
  std::vector<index_t> boundary_;  ///< col_ptr of the following column
};

/// One conversion engine instance (there is one per pseudo channel in
/// the full system; EngineStats aggregates whatever work the caller
/// routes to this instance).
class ConversionEngine {
 public:
  explicit ConversionEngine(EngineHwModel hw = EngineHwModel{});

  const EngineHwModel& hw() const { return hw_; }
  const EngineStats& stats() const { return stats_; }

  /// Convert rows [row_start, row_start + spec.tile_height) of the
  /// cursor's strip into `out`, a DCSR tile with tile-local coordinates
  /// (GetDCSRTile of Fig. 11).  Advances the cursor.  `mem` (optional)
  /// receives DRAM/crossbar traffic using `layout` addresses; when
  /// `pinned_channel >= 0` the engine's DRAM reads are charged to that
  /// pseudo channel instead (strip data placed by a sched layout
  /// policy rather than globally interleaved — Sec. 6.1).
  /// `fault_attempt` keys the deterministic corruption injection (see
  /// fault/fault.hpp): retries of the same tile redraw the fault with a
  /// fresh attempt index.  Templated on the stored value type: the
  /// datapath moves indices and opaque value words, so the identical
  /// comparator walk serves every precision — only the element width
  /// (and hence DRAM/crossbar byte counts) changes.  `out` is cleared
  /// and refilled, retaining its vectors' capacity, and all transient
  /// scratch comes from the thread-local ConversionArena — so a caller
  /// that reuses one tile across a strip (the online kernel) performs
  /// zero steady-state heap allocations per tile.
  template <class V>
  void convert_tile_into(DcsrTileT<V>& out, const CscT<V>& csc, StripCursor& cursor,
                         index_t row_start, const TilingSpec& spec,
                         MemorySystem* mem = nullptr,
                         const CscDeviceLayout* layout = nullptr,
                         int pinned_channel = -1, int fault_attempt = 0);

  /// convert_tile_into plus the consumption-point integrity check (CRC32 +
  /// structural validate) and bounded recovery: on a mismatch the strip
  /// cursor is rewound and the tile reconverted, up to
  /// fault::kMaxRetries times, with the engine's simulated counters and
  /// DRAM/crossbar traffic pinned to the first attempt so a recovered
  /// run is bit-identical to a fault-free one.  Throws FaultError when
  /// the retry budget is exhausted.
  template <class V>
  DcsrTileT<V> convert_tile_checked(const CscT<V>& csc, StripCursor& cursor,
                                    index_t row_start, const TilingSpec& spec,
                                    MemorySystem* mem = nullptr,
                                    const CscDeviceLayout* layout = nullptr,
                                    int pinned_channel = -1);

  /// convert_tile_checked into a caller-owned tile (see
  /// convert_tile_into).  The cursor-snapshot recovery path is
  /// preserved: each retry rewinds the cursor AND refills `out` from a
  /// fresh arena scope, with engine stats pinned to attempt 0, so a
  /// recovered tile is bit-identical to a fault-free conversion.
  template <class V>
  void convert_tile_checked_into(DcsrTileT<V>& out, const CscT<V>& csc,
                                 StripCursor& cursor, index_t row_start,
                                 const TilingSpec& spec, MemorySystem* mem = nullptr,
                                 const CscDeviceLayout* layout = nullptr,
                                 int pinned_channel = -1);

  /// Convert an entire strip tile-by-tile (convenience for offline
  /// comparisons and tests).
  template <class V>
  std::vector<DcsrTileT<V>> convert_strip(const CscT<V>& csc, index_t strip_id,
                                          const TilingSpec& spec,
                                          MemorySystem* mem = nullptr,
                                          const CscDeviceLayout* layout = nullptr);

 private:
  EngineHwModel hw_;
  EngineStats stats_;
};

}  // namespace nmdt
