// A-stationary SpMM (paper Sec. 3.1.1, Table 1): each tile of the
// sparse matrix is loaded into shared memory exactly once (single fetch
// of A), but every non-zero then pulls a full K-wide row of B from
// DRAM and partial C contributions go out through atomics — the most
// bandwidth-hungry of the three strategies, implemented as the Table 1
// reference point.
//
// Sharding: strips split across shards; strips overlap in C rows, so
// each shard accumulates into a PartialC buffer reduced in shard-index
// order (per C row the contribution order is strips-ascending, same as
// the serial sweep).
#include <algorithm>

#include "kernels/detail.hpp"

namespace nmdt::detail {

template <class V>
SpmmResult spmm_a_stationary(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                             const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const TiledCsrT<V>& tiled = *ops.tiled_csr;

  const index_t K = B.cols();

  // Per-tile offsets into the concatenated device blobs, so a shard can
  // address its strips' tiles without walking its predecessors.
  const TileOffsets off = tile_offsets(tiled);

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

    for (i64 s = range.begin; s < range.end; ++s) {
      const auto& strip = tiled.strips[static_cast<usize>(s)];
      for (usize t = 0; t < strip.size(); ++t) {
        const CsrTileT<V>& tile = strip[t];
        const TileOffsets::Offset& o = off.at(s, t);
        // Single fetch of the A tile into shared memory (plus the tile
        // scan visits, as in tiled CSR).
        ctx.counters.warp_visits += 1 + static_cast<u64>((tile.body.rows + 31) / 32);
        ctx.waves(InstrClass::kMemory, tile.body.rows + 1);
        ctx.mem.warp_load(rowptr_base + static_cast<u64>(o.meta) * kIndexBytes,
                          tile_meta_words(tile) * kIndexBytes);
        if (tile.nnz() == 0) continue;
        ctx.mem.warp_load(entry_base + static_cast<u64>(o.entry) * (kIndexBytes + kVB),
                          tile.nnz() * (kIndexBytes + kVB));

        for (index_t lr = 0; lr < tile.body.rows; ++lr) {
          const i64 cnt = tile.body.row_nnz(lr);
          if (cnt == 0) {
            ctx.issue(InstrClass::kControl, 1);
            continue;
          }
          const index_t grow = tile.row_begin + lr;
          ++ctx.counters.warp_visits;
          ctx.counters.serial_iterations += static_cast<u64>(cnt);
          ctx.counters.observe_chain(static_cast<u64>(cnt));  // ≤ strip width
          CT* NMDT_RESTRICT c_row = C.row(grow).data();
          const index_t jb = tile.body.row_ptr[lr];
          const index_t je = tile.body.row_ptr[lr + 1];
          // Every non-zero streams a K-wide B row from DRAM: B has no
          // residency anywhere in this strategy.  The per-non-zero
          // issue calls collapse into one ×cnt call (linear identity).
          ctx.waves(InstrClass::kMemory, K, static_cast<u64>(cnt));
          ctx.waves(InstrClass::kFp, K, static_cast<u64>(cnt));
          ctx.counters.flops += static_cast<u64>(2 * cnt * K);
          for (index_t j = jb; j < je; ++j)
            ctx.mem.warp_load(b.addr(tile.col_begin + tile.body.col_idx[j]),
                              static_cast<i64>(K) * kVB);
          // Host FP sweep, cache-blocked over B columns (bit-identical:
          // ascending-j contribution order per C element is preserved).
          const index_t bc = b_block_cols(kVB, K);
          for (index_t k0 = 0; k0 < K; k0 += bc) {
            const index_t kb = std::min<index_t>(bc, K - k0);
            for (index_t j = jb; j < je; ++j) {
              const index_t gcol = tile.col_begin + tile.body.col_idx[j];
              axpy_row(tile.body.val[j], B.row(gcol).data() + k0, c_row + k0, kb);
            }
          }
          // Partial C row for this tile, atomically merged.
          ctx.waves(InstrClass::kMemory, K);
          ctx.mem.warp_atomic(c.addr(grow), static_cast<i64>(K) * kVB);
          ++ctx.counters.atomic_updates;
        }
      }
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = 1;
  return finish<V>(merged, partial.take());
}

template SpmmResult spmm_a_stationary(const SpmmOperandsT<float>&,
                                      const DenseMatrixT<float>&, const SpmmConfig&);
template SpmmResult spmm_a_stationary(const SpmmOperandsT<double>&,
                                      const DenseMatrixT<double>&, const SpmmConfig&);
template SpmmResult spmm_a_stationary(const SpmmOperandsT<bf16_t>&,
                                      const DenseMatrixT<bf16_t>&, const SpmmConfig&);

}  // namespace nmdt::detail
