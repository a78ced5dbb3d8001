// C-stationary SpMM kernels (paper Sec. 3.1.1): each row of C is
// produced in full by one warp (or one thread), accumulating in
// registers — no atomics, B fetched per non-zero.
//
// Sharding: the 32-row warp groups split across shards (kRowGroupGrain
// groups each).  Groups own disjoint C rows, so shards write the shared
// output matrix directly; counters and memory events merge in
// shard-index order.
#include <algorithm>

#include "kernels/detail.hpp"

namespace nmdt::detail {

namespace {

/// Shared inner body of the row-per-warp kernels: process one non-empty
/// row whose entries are already resident (CSR or DCSR row view).
template <class V>
void row_per_warp_body(Ctx& ctx, std::span<const index_t> cols, std::span<const V> vals,
                       const DenseMatrixT<V>& B, const DenseLayout& b_layout,
                       std::span<typename VTraits<V>::compute_t> c_row, index_t K) {
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const i64 cnt = static_cast<i64>(cols.size());
  // Per non-zero: broadcast load of (col_idx, val) + loop control; the
  // warp walks its row serially (dependent iterations).
  ctx.issue(InstrClass::kMemory, ctx.cfg.arch.warp_size, static_cast<u64>(cnt));
  ctx.issue(InstrClass::kControl, ctx.cfg.arch.warp_size, static_cast<u64>(cnt));
  ctx.counters.serial_iterations += static_cast<u64>(cnt);
  // Untiled row-per-warp: the heaviest row serializes one warp end to
  // end — nothing bounds the chain (unlike tiling, which cuts rows at
  // strip width).
  ctx.counters.observe_chain(static_cast<u64>(cnt));
  // Per non-zero, lanes sweep the K columns of B row c in 32-wide
  // waves: one load and one FMA per wave (the K%32 tail runs partially
  // active — the paper's row-per-warp remainder imbalance).  The issue
  // helpers are linear in their repeat count, so one call carrying
  // ×cnt books totals bit-identical to cnt per-non-zero calls.
  ctx.waves(InstrClass::kMemory, K, static_cast<u64>(cnt));
  ctx.waves(InstrClass::kFp, K, static_cast<u64>(cnt));
  // The row's B-row fetches, in non-zero order.
  for (i64 j = 0; j < cnt; ++j)
    ctx.mem.warp_load(b_layout.addr(cols[j]), static_cast<i64>(K) * kVB);
  // Host FP sweep, cache-blocked over the B column dimension: every
  // non-zero of the row revisits its B row one L1-sized panel at a time
  // (see b_block_cols).  Per C element the contributions still land in
  // ascending-j order, so C is bit-identical to the unblocked sweep.
  const index_t bc = b_block_cols(kVB, K);
  for (index_t k0 = 0; k0 < K; k0 += bc) {
    const index_t kb = std::min<index_t>(bc, K - k0);
    for (i64 j = 0; j < cnt; ++j)
      axpy_row(vals[j], B.row(cols[j]).data() + k0, c_row.data() + k0, kb);
  }
  ctx.counters.flops += static_cast<u64>(2 * cnt * K);
}

}  // namespace

template <class V>
SpmmResult spmm_csr_row_warp(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                             const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const index_t K = B.cols();
  const i64 groups = (static_cast<i64>(A.rows) + 31) / 32;
  DenseMatrixT<CT> C(A.rows, K, CT{});

  ShardSet shards(cfg, groups, kRowGroupGrain);
  shards.run([&](int, ShardRange range, Ctx& ctx) {
    // Every shard replays the identical allocation sequence, so device
    // addresses (and channel/operand attribution) match the serial run.
    const CsrLayout a = CsrLayout::allocate(A, ctx.mem);
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");
    for (i64 g = range.begin; g < range.end; ++g) {
      const index_t r0 = static_cast<index_t>(g) * 32;
      const index_t rows_here = std::min<index_t>(32, A.rows - r0);
      // The 32 warps of this block pull a contiguous row_ptr window; the
      // hardware coalesces it into one stream.
      ctx.waves(InstrClass::kMemory, rows_here + 1);
      ctx.mem.warp_load(a.row_ptr + static_cast<u64>(r0) * kIndexBytes,
                        static_cast<i64>(rows_here + 1) * kIndexBytes);
      for (index_t r = r0; r < r0 + rows_here; ++r) {
        // One warp visits every row — empty or not — and pays the
        // row_ptr dependent-load chain before it can decide anything.
        ++ctx.counters.warp_visits;
        if (A.row_empty(r)) {
          // One active thread discovers the empty row and exits — the
          // divergence cost CSR pays per empty row (Fig. 6 ②).
          ctx.issue(InstrClass::kControl, 1);
          continue;
        }
        const i64 cnt = A.row_nnz(r);
        // Row entries stream in coalesced (values and column indices).
        ctx.mem.warp_load(a.col_idx + static_cast<u64>(A.row_ptr[r]) * kIndexBytes,
                          cnt * kIndexBytes);
        ctx.mem.warp_load(a.val + static_cast<u64>(A.row_ptr[r]) * kVB, cnt * kVB);
        row_per_warp_body<V>(ctx, A.row_cols(r), A.row_vals(r), B, b, C.row(r), K);
        // Write the finished C row once (C-stationary: single update).
        ctx.waves(InstrClass::kMemory, K);
        ctx.mem.warp_store(c.addr(r), static_cast<i64>(K) * kVB);
      }
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = 1;
  return finish<V>(merged, std::move(C));
}

template <class V>
SpmmResult spmm_csr_row_thread(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                               const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  const index_t K = B.cols();
  const i64 groups = (static_cast<i64>(A.rows) + 31) / 32;
  DenseMatrixT<CT> C(A.rows, K, CT{});

  ShardSet shards(cfg, groups, kRowGroupGrain);
  shards.run([&](int, ShardRange range, Ctx& ctx) {
    const CsrLayout a = CsrLayout::allocate(A, ctx.mem);
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");
    std::vector<u64> idx_addrs, val_addrs, b_addrs;
    for (i64 g = range.begin; g < range.end; ++g) {
      const index_t r0 = static_cast<index_t>(g) * 32;
      const index_t rows_here = std::min<index_t>(32, A.rows - r0);
      ctx.waves(InstrClass::kMemory, rows_here + 1);
      ctx.mem.warp_load(a.row_ptr + static_cast<u64>(r0) * kIndexBytes,
                        static_cast<i64>(rows_here + 1) * kIndexBytes);

      // Warp latency is set by the longest row in the 32-row group — the
      // nnz-variation imbalance that makes row-per-thread the weaker
      // choice (Sec. 3.1.1).
      i64 max_cnt = 0;
      for (index_t r = r0; r < r0 + rows_here; ++r)
        max_cnt = std::max(max_cnt, A.row_nnz(r));
      ++ctx.counters.warp_visits;
      ctx.counters.serial_iterations += static_cast<u64>(max_cnt);
      // Row-per-thread serializes the whole K sweep per non-zero inside
      // one thread (modest ILP assumed), so skewed rows hurt even more.
      ctx.counters.observe_chain(static_cast<u64>(max_cnt) *
                                 static_cast<u64>((K + 7) / 8));
      for (i64 it = 0; it < max_cnt; ++it) {
        int active = 0;
        idx_addrs.clear();
        val_addrs.clear();
        b_addrs.clear();
        for (index_t r = r0; r < r0 + rows_here; ++r) {
          if (A.row_nnz(r) <= it) continue;
          ++active;
          const index_t j = A.row_ptr[r] + static_cast<index_t>(it);
          const index_t col = A.col_idx[j];
          const V v = A.val[j];
          // Uncoalesced per-lane loads: each lane pulls its own sector
          // for 4 useful bytes of col_idx/val, and walks its own B row.
          // The lanes of one iteration issue together: all column
          // indices, then all values, then all B rows.
          idx_addrs.push_back(a.col_idx + static_cast<u64>(j) * kIndexBytes);
          val_addrs.push_back(a.val + static_cast<u64>(j) * kVB);
          b_addrs.push_back(b.addr(col));
          axpy_row(v, B.row(col).data(), C.row(r).data(), K);
        }
        ctx.counters.flops += static_cast<u64>(2 * K) * static_cast<u64>(active);
        for (u64 addr : idx_addrs) ctx.mem.warp_load(addr, kIndexBytes);
        for (u64 addr : val_addrs) ctx.mem.warp_load(addr, kVB);
        for (u64 addr : b_addrs) ctx.mem.warp_load(addr, static_cast<i64>(K) * kVB);
        ctx.issue(InstrClass::kMemory, active, 3);
        ctx.issue(InstrClass::kControl, active);
        ctx.issue(InstrClass::kMemory, active, static_cast<u64>(K));  // B element loads
        ctx.issue(InstrClass::kFp, active, static_cast<u64>(K));
      }
      // Each thread writes its (non-empty) C row; rows are uncoalesced
      // across lanes.
      int writers = 0;
      for (index_t r = r0; r < r0 + rows_here; ++r) {
        if (A.row_empty(r)) continue;
        ++writers;
        ctx.mem.warp_store(c.addr(r), static_cast<i64>(K) * kVB);
      }
      ctx.issue(InstrClass::kMemory, writers, static_cast<u64>(K));
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = 1;
  return finish<V>(merged, std::move(C));
}

template <class V>
SpmmResult spmm_dcsr_c_stationary(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                                  const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const CsrT<V>& A = *ops.csr;
  // Offline densification is cheap and sequential (paper Sec. 5.2
  // includes untiled DCSR in the realistic baseline set): one streaming
  // pass over CSR, one write of the DCSR arrays — done by the plan.
  const DcsrT<V>& D = *ops.dcsr;

  const index_t K = B.cols();
  const i64 nrows = D.nnz_rows();
  const i64 groups = (nrows + 31) / 32;
  DenseMatrixT<CT> C(A.rows, K, CT{});

  ShardSet shards(cfg, groups, kRowGroupGrain);
  shards.run([&](int, ShardRange range, Ctx& ctx) {
    const DcsrLayout a = DcsrLayout::allocate(D, ctx.mem);
    const DenseLayout b = DenseLayout::allocate(B, ctx.mem, "B");
    const DenseLayout c = DenseLayout::allocate(A.rows, K, kVB, ctx.mem, "C");
    for (i64 gr = range.begin; gr < range.end; ++gr) {
      const i64 g0 = gr * 32;
      const i64 rows_here = std::min<i64>(32, nrows - g0);
      // Dense-row window: row_idx + row_ptr, both nnz_rows-sized — the
      // DCSR metadata saving vs a full rows+1 row_ptr.
      ctx.waves(InstrClass::kMemory, rows_here);
      ctx.mem.warp_load(a.row_idx + static_cast<u64>(g0) * kIndexBytes,
                        rows_here * kIndexBytes);
      ctx.waves(InstrClass::kMemory, rows_here + 1);
      ctx.mem.warp_load(a.row_ptr + static_cast<u64>(g0) * kIndexBytes,
                        (rows_here + 1) * kIndexBytes);
      for (i64 g = g0; g < g0 + rows_here; ++g) {
        // Warps visit only the densified (non-empty) rows.
        ++ctx.counters.warp_visits;
        const index_t r = D.dense_row(g);
        const i64 cnt = D.dense_row_nnz(g);
        ctx.mem.warp_load(a.col_idx + static_cast<u64>(D.row_ptr[g]) * kIndexBytes,
                          cnt * kIndexBytes);
        ctx.mem.warp_load(a.val + static_cast<u64>(D.row_ptr[g]) * kVB, cnt * kVB);
        row_per_warp_body<V>(ctx, D.dense_row_cols(g), D.dense_row_vals(g), B, b,
                             C.row(r), K);
        ctx.waves(InstrClass::kMemory, K);
        ctx.mem.warp_store(c.addr(r), static_cast<i64>(K) * kVB);
      }
    }
  });
  Ctx& merged = shards.merge();
  merged.counters.kernel_launches = 1;

  // Densification prep: stream CSR in, DCSR out, at full DRAM rate.
  const Footprint fc = footprint(A);
  const Footprint fd = footprint(D);
  const double prep_ns = static_cast<double>(fc.total() + fd.total()) /
                         cfg.arch.total_bandwidth_gbps();
  return finish<V>(merged, std::move(C), 1.0, {}, 0.0, prep_ns);
}

#define NMDT_INSTANTIATE_C_STATIONARY(V)                                              \
  template SpmmResult spmm_csr_row_warp(const SpmmOperandsT<V>&,                      \
                                        const DenseMatrixT<V>&, const SpmmConfig&);   \
  template SpmmResult spmm_csr_row_thread(const SpmmOperandsT<V>&,                    \
                                          const DenseMatrixT<V>&, const SpmmConfig&); \
  template SpmmResult spmm_dcsr_c_stationary(const SpmmOperandsT<V>&,                 \
                                             const DenseMatrixT<V>&, const SpmmConfig&)

NMDT_INSTANTIATE_C_STATIONARY(float);
NMDT_INSTANTIATE_C_STATIONARY(double);
NMDT_INSTANTIATE_C_STATIONARY(bf16_t);

#undef NMDT_INSTANTIATE_C_STATIONARY

}  // namespace nmdt::detail
