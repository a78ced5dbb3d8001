// B-stationary SpMM kernels (paper Sec. 3.1.1): a 64×64 tile of B lives
// in shared memory; vertical strips of A stream through it; partial C
// contributions are accumulated with atomics (charged 2× at the memory
// system, Table 1).  B-tile traversal order is configurable
// (Sec. 3.1.3): column-major (default, C partials stay LLC-hot) or
// row-major (A strip stays LLC-hot, C thrashes).
//
// Three variants share the loop structure and differ in where the A
// tiles come from:
//   * tiled CSR      — offline tiles, full per-tile row_ptr scans (the
//                      Fig. 6 strawman: redundant row pointers + one
//                      active lane skipping each empty row),
//   * tiled DCSR     — offline tiles, dense row segments only, but the
//                      larger tiled-DCSR footprint is re-read from DRAM
//                      once per B tile column (Fig. 9's bandwidth tax),
//   * online DCSR    — tiles produced on demand by the near-memory
//                      CSC→DCSR engines and delivered over the crossbar;
//                      DRAM sees only the compact CSC stream.
//
// Every variant skips a strip without non-zeros before loading its B
// tile.  The online kernel finds one with a CSC col_ptr subtraction; the
// offline kernels find it in their own tiles, as an empty entry range
// in the per-tile device offsets (TileOffsets, kernels/detail.hpp).
//
// Sharding: the strip axis splits across shards (kStripGrain strips
// each); every strip contributes to every C row, so each shard
// accumulates into a private PartialC buffer, reduced in shard-index
// order.  Per C element the contribution order is strips-ascending
// under either traversal, so the reduced output is bit-identical to the
// serial sweep.
#include <algorithm>

#include "kernels/detail.hpp"
#include "transform/arena.hpp"

namespace nmdt::detail {

namespace {

/// SM-side processing of one DCSR tile whose data is already on chip
/// (shared memory): per dense row, stream the entries against the B
/// tile and atomically add the partial C row.
template <class V>
void process_dcsr_tile(Ctx& ctx, const DcsrTileT<V>& tile, const DenseMatrixT<V>& B,
                       DenseMatrixT<typename VTraits<V>::compute_t>& C,
                       const DenseLayout& c_layout, index_t b_col_begin,
                       index_t tile_cols) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  for (i64 g = 0; g < tile.body.nnz_rows(); ++g) {
    const index_t grow = tile.row_begin + tile.body.dense_row(g);
    const auto cols = tile.body.dense_row_cols(g);
    const auto vals = tile.body.dense_row_vals(g);
    ctx.issue(InstrClass::kControl, ctx.cfg.arch.warp_size);
    ++ctx.counters.warp_visits;
    ctx.counters.serial_iterations += cols.size();
    ctx.counters.observe_chain(cols.size());  // bounded by strip width
    CT* NMDT_RESTRICT c_row = C.row(grow).data() + b_col_begin;
    // Broadcast entry read + shared-memory B row sweep + FMA waves, one
    // ×cnt issue call per class (linear identity with the per-non-zero
    // calls).  The B sweep is bounded by the tile width, so the tiled
    // kernels are already cache-blocked by construction.
    const u64 cnt = static_cast<u64>(cols.size());
    ctx.issue(InstrClass::kMemory, ctx.cfg.arch.warp_size, cnt);
    ctx.waves(InstrClass::kMemory, tile_cols, cnt);
    ctx.waves(InstrClass::kFp, tile_cols, cnt);
    ctx.counters.flops += static_cast<u64>(2 * tile_cols) * cnt;
    for (usize j = 0; j < cols.size(); ++j) {
      const index_t gcol = tile.col_begin + cols[j];
      axpy_row(vals[j], B.row(gcol).data() + b_col_begin, c_row, tile_cols);
    }
    // Partial-sum accumulation: atomicAdd of the tile_cols-wide C row
    // segment (other SMs may be contributing to the same C tile).
    ctx.waves(InstrClass::kMemory, tile_cols);
    ctx.mem.warp_atomic(c_layout.addr(grow, b_col_begin), static_cast<i64>(tile_cols) * kVB);
    ++ctx.counters.atomic_updates;
  }
}

/// Offline preprocessing cost of building a tiled format: stream the
/// CSR source in and scatter the tiled output.  Scatter writes land at
/// sector granularity, modelled as a 4× write penalty — this is the
/// "non-trivial transformation cost" of Sec. 3.3 that online conversion
/// eliminates.
double offline_tiling_cost_ns(const Footprint& src, const Footprint& dst,
                              const ArchConfig& arch) {
  constexpr double kScatterPenalty = 4.0;
  return (static_cast<double>(src.total()) +
          static_cast<double>(dst.total()) * kScatterPenalty) /
         arch.total_bandwidth_gbps();
}

}  // namespace

template <class V>
SpmmResult spmm_tiled_csr_b_stationary(const SpmmOperandsT<V>& ops,
                                       const DenseMatrixT<V>& B, const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const TilingSpec& spec = cfg.tiling;
  const TiledCsrT<V>& tiled = *ops.tiled_csr;
  const TileOffsets off = tile_offsets(tiled);

  const index_t K = B.cols();
  const index_t bt = spec.strip_width;  // B tile is bt×bt

  ShardSet shards(cfg, tiled.num_strips(), kStripGrain);
  PartialCT<CT> partial(A.rows, K, shards.size());
  shards.run([&](int sh, ShardRange range, Ctx& ctx) {
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");
    const u64 rowptr_base =
        ctx.mem.allocate(off.total().meta * kIndexBytes, "A.tiles.row_ptr");
    const u64 entry_base =
        ctx.mem.allocate(off.total().entry * (kIndexBytes + kVB), "A.tiles.entries");
    DenseMatrixT<CT>& C = partial.shard(sh);

    const VisitOrder visits(K, bt, static_cast<index_t>(range.begin),
                            static_cast<index_t>(range.end), cfg.traversal);
    for (i64 v = 0; v < visits.size(); ++v) {
      const auto [bc, s] = visits[v];
      if (off.strip_empty(s)) continue;
      const index_t tile_cols = std::min<index_t>(bt, K - bc);
      const index_t width =
          std::min<index_t>(spec.strip_width, A.cols - s * spec.strip_width);
      load_b_tile(ctx, b, s * spec.strip_width, width, bc, tile_cols);

      for (usize t = 0; t < tiled.strips[s].size(); ++t) {
        const CsrTileT<V>& tile = tiled.strips[s][t];
        const TileOffsets::Offset& o = off.at(s, t);
        // Full row_ptr scan: (tile_rows+1) pointers regardless of how
        // many rows are empty — the redundant-metadata pathology.  The
        // scan itself costs warp visits proportional to tile height.
        ctx.counters.warp_visits += 1 + static_cast<u64>((tile.body.rows + 31) / 32);
        ctx.waves(InstrClass::kMemory, tile.body.rows + 1);
        ctx.mem.warp_load(rowptr_base + static_cast<u64>(o.meta) * kIndexBytes,
                          tile_meta_words(tile) * kIndexBytes);
        if (tile.nnz() > 0) {
          ctx.mem.warp_load(entry_base + static_cast<u64>(o.entry) * (kIndexBytes + kVB),
                            tile.nnz() * (kIndexBytes + kVB));
        }

        for (index_t lr = 0; lr < tile.body.rows; ++lr) {
          const i64 cnt = tile.body.row_nnz(lr);
          if (cnt == 0) {
            // One active lane discovers the empty row (Fig. 6 ②).
            ctx.issue(InstrClass::kControl, 1);
            continue;
          }
          const index_t grow = tile.row_begin + lr;
          ctx.issue(InstrClass::kControl, ctx.cfg.arch.warp_size);
          ++ctx.counters.warp_visits;
          ctx.counters.serial_iterations += static_cast<u64>(cnt);
          ctx.counters.observe_chain(static_cast<u64>(cnt));  // ≤ strip width
          CT* NMDT_RESTRICT c_row = C.row(grow).data() + bc;
          ctx.issue(InstrClass::kMemory, ctx.cfg.arch.warp_size, static_cast<u64>(cnt));
          ctx.waves(InstrClass::kMemory, tile_cols, static_cast<u64>(cnt));
          ctx.waves(InstrClass::kFp, tile_cols, static_cast<u64>(cnt));
          ctx.counters.flops += static_cast<u64>(2 * cnt * tile_cols);
          for (index_t j = tile.body.row_ptr[lr]; j < tile.body.row_ptr[lr + 1]; ++j) {
            const index_t gcol = tile.col_begin + tile.body.col_idx[j];
            axpy_row(tile.body.val[j], B.row(gcol).data() + bc, c_row, tile_cols);
          }
          ctx.waves(InstrClass::kMemory, tile_cols);
          ctx.mem.warp_atomic(c.addr(grow, bc), static_cast<i64>(tile_cols) * kVB);
          ++ctx.counters.atomic_updates;
        }
      }
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = static_cast<u64>((K + bt - 1) / bt);

  const double prep = offline_tiling_cost_ns(footprint(A), footprint(tiled), cfg.arch);
  return finish<V>(merged, partial.take(), 1.0, {}, 0.0, prep);
}

template <class V>
SpmmResult spmm_tiled_dcsr_b_stationary(const SpmmOperandsT<V>& ops,
                                        const DenseMatrixT<V>& B, const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const TilingSpec& spec = cfg.tiling;
  const TiledDcsrT<V>& tiled = *ops.tiled_dcsr;
  const TileOffsets off = tile_offsets(tiled);

  const index_t K = B.cols();
  const index_t bt = spec.strip_width;

  ShardSet shards(cfg, tiled.num_strips(), kStripGrain);
  PartialCT<CT> partial(A.rows, K, shards.size());
  shards.run([&](int sh, ShardRange range, Ctx& ctx) {
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");
    const u64 meta_base =
        ctx.mem.allocate(off.total().meta * kIndexBytes, "A.tiles.meta");
    const u64 entry_base =
        ctx.mem.allocate(off.total().entry * (kIndexBytes + kVB), "A.tiles.entries");
    DenseMatrixT<CT>& C = partial.shard(sh);

    const VisitOrder visits(K, bt, static_cast<index_t>(range.begin),
                            static_cast<index_t>(range.end), cfg.traversal);
    for (i64 v = 0; v < visits.size(); ++v) {
      const auto [bc, s] = visits[v];
      if (off.strip_empty(s)) continue;
      const index_t tile_cols = std::min<index_t>(bt, K - bc);
      const index_t width =
          std::min<index_t>(spec.strip_width, A.cols - s * spec.strip_width);
      load_b_tile(ctx, b, s * spec.strip_width, width, bc, tile_cols);

      for (usize t = 0; t < tiled.strips[s].size(); ++t) {
        const DcsrTileT<V>& tile = tiled.strips[s][t];
        const TileOffsets::Offset& o = off.at(s, t);
        const i64 meta_words = tile_meta_words(tile);
        // DCSR metadata: proportional to non-empty rows, not tile height.
        ++ctx.counters.warp_visits;
        ctx.waves(InstrClass::kMemory, meta_words);
        ctx.mem.warp_load(meta_base + static_cast<u64>(o.meta) * kIndexBytes,
                          meta_words * kIndexBytes);
        if (tile.nnz() > 0) {
          ctx.mem.warp_load(entry_base + static_cast<u64>(o.entry) * (kIndexBytes + kVB),
                            tile.nnz() * (kIndexBytes + kVB));
        }
        process_dcsr_tile<V>(ctx, tile, B, C, c, bc, tile_cols);
      }
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = static_cast<u64>((K + bt - 1) / bt);

  const double prep = offline_tiling_cost_ns(footprint(A), footprint(tiled), cfg.arch);
  return finish<V>(merged, partial.take(), 1.0, {}, 0.0, prep);
}

template <class V>
SpmmResult spmm_tiled_dcsr_online(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                                  const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const TilingSpec& spec = cfg.tiling;
  const CscT<V>& csc = *ops.csc;

  const index_t K = B.cols();
  const index_t bt = spec.strip_width;
  const index_t num_strips = spec.num_strips(A.cols);

  // Tiles route to the channel that owns their data under the
  // configured placement (shared across shards — pure function of the
  // strip/tile coordinates).
  const StripPlacement placement(cfg.placement, cfg.arch.pseudo_channels);

  ShardSet shards(cfg, num_strips, kStripGrain);
  PartialCT<CT> partial(A.rows, K, shards.size());
  // Per-shard engine occupancy and stats, folded in shard-index order
  // after the run.  Each strip phase is self-contained (busiest-engine
  // beat delta over the phase), so the per-shard sums add up to exactly
  // the serial total.
  std::vector<double> shard_busy_ns(static_cast<usize>(shards.size()), 0.0);
  std::vector<EngineStats> shard_engine(static_cast<usize>(shards.size()));

  shards.run([&](int sh, ShardRange range, Ctx& ctx) {
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");
    const CscDeviceLayout a = CscDeviceLayout::allocate(csc, ctx.mem);

    // One conversion engine per pseudo channel, private to the shard
    // (its strips' tiles only ever route through its own engines).
    std::vector<ConversionEngine> engines;
    engines.reserve(static_cast<usize>(cfg.arch.pseudo_channels));
    for (int ch = 0; ch < cfg.arch.pseudo_channels; ++ch) engines.emplace_back(cfg.engine_hw);

    DenseMatrixT<CT>& C = partial.shard(sh);

    // Engine occupancy is phase-structured: the SMs sweep one strip's
    // tiles concurrently (that is what creates the Fig. 17 camping
    // problem), so per strip phase the busiest engine bounds conversion
    // time; phases accumulate.
    double engine_busy_ns = 0.0;
    auto engine_beats = [&](int ch) {
      const EngineStats& st = engines[static_cast<usize>(ch)].stats();
      return st.steps + st.requests;
    };
    std::vector<u64> beats_before(static_cast<usize>(cfg.arch.pseudo_channels));

    const VisitOrder visits(K, bt, static_cast<index_t>(range.begin),
                            static_cast<index_t>(range.end), cfg.traversal);
    for (i64 v = 0; v < visits.size(); ++v) {
      const auto [bc, s] = visits[v];
      const index_t tile_cols = std::min<index_t>(bt, K - bc);
      const index_t col_begin = s * spec.strip_width;
      const index_t col_end = std::min<index_t>(col_begin + spec.strip_width, A.cols);
      // Strip emptiness is one col_ptr subtraction away in CSC.
      if (csc.col_ptr[col_end] == csc.col_ptr[col_begin]) continue;
      for (int ch = 0; ch < cfg.arch.pseudo_channels; ++ch) {
        beats_before[static_cast<usize>(ch)] = engine_beats(ch);
      }
      // CSC knows which strip columns are empty (one col_ptr
      // subtraction), so the online kernel loads only the B rows that
      // can be touched — the n_nnzcol·K "single fetch" of Table 1 that
      // row-major offline tiles cannot achieve (Sec. 3.1.4).
      u64 live_cols = 0;
      for (index_t col = col_begin; col < col_end; ++col) {
        if (csc.col_ptr[col + 1] == csc.col_ptr[col]) continue;
        ++live_cols;
        ctx.mem.warp_load(b.addr(col, bc), static_cast<i64>(tile_cols) * kVB);
      }
      ctx.waves(InstrClass::kMemory, tile_cols, live_cols);

      StripCursor cursor(csc, s, spec);
      // One tile buffer per strip sweep, refilled in place, and a fresh
      // arena epoch: steady state converts every tile of the strip with
      // zero heap allocations.
      ConversionArena::local().reset();
      DcsrTileT<V> tile;
      for (index_t row_start = 0, t = 0; row_start < A.rows;
           row_start += spec.tile_height, ++t) {
        const int ch = placement.channel_for(s, t);
        // GetDCSRTile intrinsic: the request message to the conversion
        // unit (Fig. 11); requests stream ahead of consumption, so they
        // pipeline rather than serializing the warp.
        ctx.issue(InstrClass::kMemory, ctx.cfg.arch.warp_size);
        engines[static_cast<usize>(ch)].convert_tile_checked_into(
            tile, csc, cursor, row_start, spec, &ctx.mem, &a, ch);
        if (tile.nnz() == 0) continue;
        process_dcsr_tile<V>(ctx, tile, B, C, c, bc, tile_cols);
      }
      u64 phase_max = 0;
      for (int ch = 0; ch < cfg.arch.pseudo_channels; ++ch) {
        phase_max =
            std::max(phase_max, engine_beats(ch) - beats_before[static_cast<usize>(ch)]);
      }
      engine_busy_ns += static_cast<double>(phase_max) * cfg.engine_hw.cycle_ns_sp;
    }

    shard_busy_ns[static_cast<usize>(sh)] = engine_busy_ns;
    EngineStats total;
    for (const auto& e : engines) total += e.stats();
    shard_engine[static_cast<usize>(sh)] = total;
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = static_cast<u64>((K + bt - 1) / bt);

  double engine_busy_ns = 0.0;
  EngineStats total_engine;
  for (usize sh = 0; sh < shard_engine.size(); ++sh) {
    engine_busy_ns += shard_busy_ns[sh];
    total_engine += shard_engine[sh];
  }
  return finish<V>(merged, partial.take(), 1.0, total_engine, engine_busy_ns, 0.0);
}

#define NMDT_INSTANTIATE_B_STATIONARY(V)                                        \
  template SpmmResult spmm_tiled_csr_b_stationary(                              \
      const SpmmOperandsT<V>&, const DenseMatrixT<V>&, const SpmmConfig&);      \
  template SpmmResult spmm_tiled_dcsr_b_stationary(                             \
      const SpmmOperandsT<V>&, const DenseMatrixT<V>&, const SpmmConfig&);      \
  template SpmmResult spmm_tiled_dcsr_online(const SpmmOperandsT<V>&,           \
                                             const DenseMatrixT<V>&, const SpmmConfig&)

NMDT_INSTANTIATE_B_STATIONARY(float);
NMDT_INSTANTIATE_B_STATIONARY(double);
NMDT_INSTANTIATE_B_STATIONARY(bf16_t);

#undef NMDT_INSTANTIATE_B_STATIONARY

}  // namespace nmdt::detail
