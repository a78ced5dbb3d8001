// Internal helpers shared by the SpMM kernel implementations.  Not part
// of the public API.
//
// Precision: helpers are templated on the stored value type V.  Device
// layouts size value arrays at sizeof(V) (the width the memory system
// sees), while host-side accumulation runs at VTraits<V>::compute_t —
// bf16 operands are widened to f32 for every FMA and narrowed once when
// the result is stored (finish()).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "gpusim/warp.hpp"
#include "kernels/spmm.hpp"
#include "util/precision.hpp"
#include "util/simd.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define NMDT_RESTRICT __restrict__
#else
#define NMDT_RESTRICT
#endif

namespace nmdt::detail {

/// Device placement of a row-major dense matrix.  `vbytes` is the
/// stored element width — it scales every address and every request
/// size derived from this layout.
struct DenseLayout {
  u64 base = 0;
  index_t cols = 0;
  i64 vbytes = kValueBytes;

  u64 addr(index_t r, index_t col_off = 0) const {
    return base + (static_cast<u64>(r) * static_cast<u64>(cols) + static_cast<u64>(col_off)) *
                      static_cast<u64>(vbytes);
  }

  template <class V>
  static DenseLayout allocate(const DenseMatrixT<V>& m, MemorySystem& mem,
                              const std::string& name) {
    return {mem.allocate(m.size_bytes(), name), m.cols(), static_cast<i64>(sizeof(V))};
  }

  /// Placement by shape only — shard bodies replay the allocation
  /// sequence without materializing a host-side matrix.
  static DenseLayout allocate(index_t rows, index_t cols, i64 value_bytes,
                              MemorySystem& mem, const std::string& name) {
    return {mem.allocate(static_cast<i64>(rows) * cols * value_bytes, name), cols,
            value_bytes};
  }
};

/// Device placement of a CSR matrix.
struct CsrLayout {
  u64 row_ptr = 0;
  u64 col_idx = 0;
  u64 val = 0;

  template <class V>
  static CsrLayout allocate(const CsrT<V>& a, MemorySystem& mem) {
    CsrLayout l;
    l.row_ptr = mem.allocate(static_cast<i64>(a.row_ptr.size()) * kIndexBytes, "A.row_ptr");
    l.col_idx = mem.allocate(static_cast<i64>(a.col_idx.size()) * kIndexBytes, "A.col_idx");
    l.val = mem.allocate(static_cast<i64>(a.val.size() * sizeof(V)), "A.val");
    return l;
  }
};

/// Device placement of an (untiled) DCSR matrix.
struct DcsrLayout {
  u64 row_idx = 0;
  u64 row_ptr = 0;
  u64 col_idx = 0;
  u64 val = 0;

  template <class V>
  static DcsrLayout allocate(const DcsrT<V>& a, MemorySystem& mem) {
    DcsrLayout l;
    l.row_idx = mem.allocate(static_cast<i64>(a.row_idx.size()) * kIndexBytes, "A.row_idx");
    l.row_ptr = mem.allocate(static_cast<i64>(a.row_ptr.size()) * kIndexBytes, "A.row_ptr");
    l.col_idx = mem.allocate(static_cast<i64>(a.col_idx.size()) * kIndexBytes, "A.col_idx");
    l.val = mem.allocate(static_cast<i64>(a.val.size() * sizeof(V)), "A.val");
    return l;
  }
};

/// Metadata words of one offline tile: the full row_ptr of a tiled-CSR
/// tile; row_idx plus row_ptr of a tiled-DCSR tile.
template <class V>
i64 tile_meta_words(const CsrTileT<V>& t) {
  return static_cast<i64>(t.body.row_ptr.size());
}
template <class V>
i64 tile_meta_words(const DcsrTileT<V>& t) {
  return static_cast<i64>(t.body.row_idx.size() + t.body.row_ptr.size());
}

/// Device offsets of an offline tiled format stored as two concatenated
/// blobs (metadata words, entry pairs), tiles in strip-major order:
/// tile t of strip s sits at tile[strip_start[s] + t], and one trailing
/// element holds the blob totals.  A strip's entries are the range
/// between its first tile's offset and the next strip's, so an empty
/// strip is found in the tiles themselves.
struct TileOffsets {
  struct Offset {
    i64 meta = 0;   ///< metadata word offset
    i64 entry = 0;  ///< entry offset
  };
  std::vector<Offset> tile;
  std::vector<usize> strip_start;  ///< num_strips + 1 indices into `tile`

  const Offset& at(i64 s, usize t) const {
    return tile[strip_start[static_cast<usize>(s)] + t];
  }
  bool strip_empty(i64 s) const {
    return tile[strip_start[static_cast<usize>(s) + 1]].entry ==
           tile[strip_start[static_cast<usize>(s)]].entry;
  }
  const Offset& total() const { return tile.back(); }
};

template <class Tiled>
TileOffsets tile_offsets(const Tiled& tiled) {
  TileOffsets off;
  off.strip_start.reserve(tiled.strips.size() + 1);
  TileOffsets::Offset next;
  for (const auto& strip : tiled.strips) {
    off.strip_start.push_back(off.tile.size());
    for (const auto& tile : strip) {
      off.tile.push_back(next);
      next.meta += tile_meta_words(tile);
      next.entry += tile.nnz();
    }
  }
  off.strip_start.push_back(off.tile.size());
  off.tile.push_back(next);
  return off;
}

/// Shared kernel-execution state.
struct Ctx {
  const SpmmConfig& cfg;
  MemorySystem mem;
  KernelCounters counters;

  explicit Ctx(const SpmmConfig& c) : cfg(c), mem(c.arch, c.mem_mode) { c.arch.validate(); }

  void issue(InstrClass cls, int lanes, u64 times = 1) {
    nmdt::issue(counters, cfg.arch, cls, lanes, times);
  }
  /// `elements` parallel lanes of work processed 32 at a time.
  void waves(InstrClass cls, i64 elements, u64 per_wave = 1) {
    issue_waves(counters, cfg.arch, cls, elements, per_wave);
  }
};

/// Store a compute-precision accumulator into the result at storage
/// precision V: f32 moves it into `C`, f64 into `C64`, bf16 rounds each
/// element to the nearest bf16 (round-to-nearest-even, still held as f32
/// bits in `C`).
template <class V>
void store_result_c(SpmmResult& res, DenseMatrixT<typename VTraits<V>::compute_t>&& C);

/// Assemble the result: snapshot counters/memory, compute timing, store
/// C at precision V.
template <class V>
SpmmResult finish(Ctx& ctx, DenseMatrixT<typename VTraits<V>::compute_t> C,
                  double compute_inflation = 1.0, EngineStats engine = {},
                  double engine_busy_ns = 0.0, double offline_prep_ns = 0.0);

/// Cooperative load of a B tile into shared memory: `width` B rows
/// (one per A strip column) by `tile_cols` columns starting at
/// (row_begin, col_begin).  Request sizes scale with the layout's
/// element width.
void load_b_tile(Ctx& ctx, const DenseLayout& b, index_t row_begin, index_t width,
                 index_t col_begin, index_t tile_cols);

/// c[0..k) += a·b[0..k): the accumulate micro-kernel every kernel's FMA
/// sweep routes through, dispatched to the SIMD tier resolved at
/// startup (util/simd.hpp: AVX2 / NEON / portable scalar).  Operands
/// are stored values (V); the accumulator row is compute precision —
/// bf16 widens to f32 per element, f32/f64 are identity widenings.
/// Every tier performs, per element, exactly one IEEE multiply followed
/// by one IEEE add (never a fused multiply-add), so each element still
/// receives the same single update as the scalar loop this replaces and
/// the FP result is unchanged bitwise at every tier.
template <class V>
inline void axpy_row(V a, const V* NMDT_RESTRICT b,
                     typename VTraits<V>::compute_t* NMDT_RESTRICT c, index_t k) {
  simd::axpy<V>(a, b, c, k);
}

/// Dense-B panel width (columns) for the host-side cache blocking of
/// the c-stationary / merge / a-stationary compute loops.  When a row's
/// (or span's) nnz all accumulate into one shared C row, sweeping the
/// full K columns per non-zero walks value_bytes·K of B per touch; once
/// the working set of touched B rows outgrows L1 every pass streams
/// from L2/DRAM.  Blocking the column dimension revisits the same B
/// rows one panel at a time instead.  Per C element the contributing
/// products are still added in ascending-nnz order — blocking permutes
/// work only ACROSS columns, never within one accumulator — so C is
/// bit-identical to the unblocked sweep.  Returns K (no blocking) when
/// one panel already covers the row.
inline index_t b_block_cols(i64 vbytes, index_t K) {
  // Target: ~64 resident B rows per panel in half of a 32 KiB L1.
  constexpr i64 kPanelBudgetBytes = 16 * 1024;
  i64 block = kPanelBudgetBytes / (64 * vbytes);
  block = (block / 32) * 32;  // keep panels warp-aligned
  if (block < 32) block = 32;
  if (block >= static_cast<i64>(K)) return K;
  return static_cast<index_t>(block);
}

/// dst += src elementwise (the partial-C reduction step; always applied
/// in ascending shard order so the FP accumulation order is fixed).
/// Instantiated at the compute precisions (float, double).
template <class T>
void accumulate_dense(DenseMatrixT<T>& dst, const DenseMatrixT<T>& src);

// ---- Intra-kernel sharding ------------------------------------------
//
// One SpMM call splits its visit sequence into shards executed on up to
// cfg.jobs host threads.  The decomposition is a function of the work
// size ALONE (shard_count never reads cfg.jobs), so the shard set — and
// after the deterministic shard-index-order merge, every byte of the
// result — is identical at any job count.  Each shard owns a private
// Ctx whose MemorySystem replayed the identical allocation sequence;
// counting-mode totals are order-independent sums, so the merged stats
// also equal the pre-sharding serial implementation's.  In cache-sim
// mode each shard carries its own L2/DRAM-bank state (a shard models a
// group of SMs with a slice of the memory system); totals are summed.

inline constexpr int kMaxKernelShards = 16;
/// Work units per shard before a kernel splits: vertical strips for the
/// B-/A-stationary families, 32-row warp groups for the C-stationary
/// family, dense rows for the merge kernel.  Sized so the small
/// matrices used by unit tests stay single-shard.
inline constexpr i64 kStripGrain = 16;
inline constexpr i64 kRowGroupGrain = 32;
inline constexpr i64 kMergeRowGrain = 1024;

/// clamp(items / grain, 1, kMaxKernelShards).
int shard_count(i64 items, i64 grain);

struct ShardRange {
  i64 begin = 0;
  i64 end = 0;
};

/// Contiguous, balanced slice of [0, items) for shard `shard` of
/// `shards`.
ShardRange shard_range(i64 items, int shards, int shard);

/// The shard set of one kernel invocation: shard_count() private Ctxs
/// plus the run/merge choreography.
class ShardSet {
 public:
  ShardSet(const SpmmConfig& cfg, i64 items, i64 grain);

  int size() const { return static_cast<int>(ctxs_.size()); }
  ShardRange range(int shard) const { return shard_range(items_, size(), shard); }

  /// Execute body(shard, range, ctx) for every shard on up to cfg.jobs
  /// threads (inline when there is one shard or one job).
  void run(const std::function<void(int, ShardRange, Ctx&)>& body);

  /// Fold counters and memory stats of shards 1..n-1 into shard 0, in
  /// shard-index order, and return shard 0's Ctx.
  Ctx& merge();

 private:
  i64 items_;
  std::vector<Ctx> ctxs_;
};

/// Per-shard partial C buffers for kernels whose shards contribute to
/// overlapping C rows (B-/A-stationary).  Buffers hold the compute
/// precision T.  Shard 0's buffer doubles as the final C: take() folds
/// shards 1..n-1 into it in index order.
template <class T>
class PartialCT {
 public:
  PartialCT(index_t rows, index_t cols, int shards);

  DenseMatrixT<T>& shard(int s) { return buffers_[static_cast<usize>(s)]; }
  DenseMatrixT<T> take();

 private:
  std::vector<DenseMatrixT<T>> buffers_;
};

using PartialC = PartialCT<value_t>;

/// Index-based generator of the (b_col_begin, strip) visit sequence of
/// Sec. 3.1.3 for strips [strip_begin, strip_end): replaces the
/// materialized pair vector (an O(strips·K/bt) allocation per call) and
/// doubles as the shard slicer — a shard iterates its own strip range.
class VisitOrder {
 public:
  VisitOrder(index_t K, index_t bt, index_t strip_begin, index_t strip_end,
             TraversalOrder order)
      : bt_(bt),
        strip_begin_(strip_begin),
        strips_(strip_end - strip_begin),
        blocks_((K + bt - 1) / bt),
        order_(order) {}

  i64 size() const { return static_cast<i64>(strips_) * blocks_; }

  /// i-th visit as (b_col_begin, strip).
  std::pair<index_t, index_t> operator[](i64 i) const {
    if (order_ == TraversalOrder::kColumnMajor) {
      return {static_cast<index_t>(i / strips_) * bt_,
              strip_begin_ + static_cast<index_t>(i % strips_)};
    }
    return {static_cast<index_t>(i % blocks_) * bt_,
            strip_begin_ + static_cast<index_t>(i / blocks_)};
  }

 private:
  index_t bt_;
  index_t strip_begin_;
  index_t strips_;
  index_t blocks_;
  TraversalOrder order_;
};

// Kernel implementations (one translation unit per family), templated
// on the stored value type and explicitly instantiated for float,
// double, and bf16_t in their defining translation units.  Each reads
// the planned artifacts it needs straight from the bundle: the
// entry (run_spmm) has already checked that they are present and cut
// under cfg.tiling, so no kernel converts.
template <class V>
SpmmResult spmm_csr_row_warp(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                             const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_csr_row_thread(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                               const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_dcsr_c_stationary(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                                  const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_tiled_csr_b_stationary(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                                       const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_tiled_dcsr_b_stationary(const SpmmOperandsT<V>& A,
                                        const DenseMatrixT<V>& B, const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_tiled_dcsr_online(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                                  const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_a_stationary(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                             const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_merge_c_stationary(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                                   const SpmmConfig& cfg);
template <class V>
SpmmResult spmm_hong_hybrid(const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                            const SpmmConfig& cfg);

}  // namespace nmdt::detail
