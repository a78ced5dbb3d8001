// Merge-based C-stationary SpMM (Merrill & Garland [21], the orthogonal
// load-balancing fix the paper points at in Sec. 5.2).
//
// Row-per-warp kernels serialize each row in one warp, so a single
// heavy row sets the kernel's critical path on skewed matrices.  The
// merge-based decomposition splits the (row boundary, non-zero) merge
// path into equal spans: every warp gets at most `kMergeChunk`
// non-zeros regardless of row structure.  Spans that end mid-row
// contribute their partial C row with an atomicAdd fixup; spans that
// own whole rows write C directly (the common case).  DCSR supplies
// the row stream so empty rows cost nothing — this composes the
// paper's densification with merge-based balancing, and the
// sec52_merge_ablation bench shows the critical path collapsing while
// traffic stays put.
//
// Sharding: dense rows split across shards (kMergeRowGrain rows each);
// shards own disjoint C rows, so they write the shared output directly.
// The one-time metadata stream is charged to shard 0 so merged totals
// match the serial kernel exactly.
#include <algorithm>

#include "kernels/detail.hpp"

namespace nmdt::detail {

/// Maximum non-zeros one warp processes before a row is split.
constexpr index_t kMergeChunk = 256;

template <class V>
SpmmResult spmm_merge_c_stationary(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                                   const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const DcsrT<V>& D = *ops.dcsr;

  const index_t K = B.cols();
  DenseMatrixT<CT> C(A.rows, K, CT{});

  ShardSet shards(cfg, D.nnz_rows(), kMergeRowGrain);
  shards.run([&](int sh, ShardRange range, Ctx& ctx) {
    const DcsrLayout a = DcsrLayout::allocate(D, ctx.mem);
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");

    if (sh == 0) {
      // Metadata stream: each warp binary-searches its span start on the
      // merge path; amortized, the row_idx/row_ptr arrays stream once.
      const i64 meta_words = D.nnz_rows() * 2 + 1;
      ctx.waves(InstrClass::kMemory, meta_words);
      ctx.mem.warp_load(a.row_idx, D.nnz_rows() * kIndexBytes);
      ctx.mem.warp_load(a.row_ptr, (D.nnz_rows() + 1) * kIndexBytes);
    }

    for (i64 g = range.begin; g < range.end; ++g) {
      const index_t r = D.dense_row(g);
      const index_t row_begin = D.row_ptr[g];
      const index_t row_end = D.row_ptr[g + 1];
      CT* NMDT_RESTRICT c_row = C.row(r).data();

      for (index_t span = row_begin; span < row_end; span += kMergeChunk) {
        const index_t span_end = std::min<index_t>(span + kMergeChunk, row_end);
        const i64 cnt = span_end - span;
        const bool whole_row = span == row_begin && span_end == row_end;

        // One warp per span: bounded serial chain by construction.
        ++ctx.counters.warp_visits;
        ctx.counters.serial_iterations += static_cast<u64>(cnt);
        ctx.counters.observe_chain(static_cast<u64>(cnt));
        ctx.issue(InstrClass::kControl, ctx.cfg.arch.warp_size);
        // Span's entries stream in coalesced.
        ctx.mem.warp_load(a.col_idx + static_cast<u64>(span) * kIndexBytes,
                          cnt * kIndexBytes);
        ctx.mem.warp_load(a.val + static_cast<u64>(span) * kVB, cnt * kVB);
        ctx.issue(InstrClass::kMemory, ctx.cfg.arch.warp_size, static_cast<u64>(cnt));

        // Accumulate the span into registers (math on the host directly
        // into C — partials sum associatively up to FP rounding).  The
        // per-non-zero issue calls collapse into one ×cnt call (linear
        // identity).
        ctx.waves(InstrClass::kMemory, K, static_cast<u64>(cnt));
        ctx.waves(InstrClass::kFp, K, static_cast<u64>(cnt));
        ctx.counters.flops += static_cast<u64>(2 * cnt * K);
        for (index_t j = span; j < span_end; ++j)
          ctx.mem.warp_load(b.addr(D.col_idx[j]), static_cast<i64>(K) * kVB);
        // Host FP sweep, cache-blocked over B columns (bit-identical:
        // per C element the span's contributions keep ascending-j
        // order; D shares A's entry ordering — densification drops
        // only rows).
        const index_t bc = b_block_cols(kVB, K);
        for (index_t k0 = 0; k0 < K; k0 += bc) {
          const index_t kb = std::min<index_t>(bc, K - k0);
          for (index_t j = span; j < span_end; ++j)
            axpy_row(D.val[j], B.row(D.col_idx[j]).data() + k0, c_row + k0, kb);
        }

        ctx.waves(InstrClass::kMemory, K);
        if (whole_row) {
          // Exclusive owner: plain store.
          ctx.mem.warp_store(c.addr(r), static_cast<i64>(K) * kVB);
        } else {
          // Split row: partial contribution merges atomically.
          ctx.mem.warp_atomic(c.addr(r), static_cast<i64>(K) * kVB);
          ++ctx.counters.atomic_updates;
        }
      }
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = 1;
  return finish<V>(merged, std::move(C));
}

template SpmmResult spmm_merge_c_stationary(const SpmmOperandsT<float>&,
                                            const DenseMatrixT<float>&, const SpmmConfig&);
template SpmmResult spmm_merge_c_stationary(const SpmmOperandsT<double>&,
                                            const DenseMatrixT<double>&,
                                            const SpmmConfig&);
template SpmmResult spmm_merge_c_stationary(const SpmmOperandsT<bf16_t>&,
                                            const DenseMatrixT<bf16_t>&,
                                            const SpmmConfig&);

}  // namespace nmdt::detail
