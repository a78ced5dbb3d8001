// The Hong et al. [12] hybrid scheme (paper Sec. 7 related work):
// heavily clustered row segments are extracted offline into tiled DCSR
// and multiplied B-stationary against shared-memory B tiles; the light
// remainder stays in CSR and runs output-stationary.
//
// The paper's critique, which this implementation makes measurable:
//  * B rows touched by BOTH the heavy and the light part are fetched in
//    both phases (the overlap re-read),
//  * the split + tiling preprocessing is a real offline cost,
// both of which the online near-memory conversion avoids.  The kernel
// composes the existing tiled-DCSR B-stationary and CSR C-stationary
// phases on separate memory-system instances and merges their
// statistics; correctness holds because SpMM is additive over any
// partition of A's non-zeros.
#include <algorithm>
#include <type_traits>

#include "kernels/detail.hpp"

namespace nmdt::detail {

namespace {

/// Minimum non-zeros a (strip, row) segment needs to be extracted into
/// the heavy DCSR part.
constexpr index_t kHongHeavyThreshold = 4;

template <class V>
struct HongSplit {
  CsrT<V> heavy;  ///< segments with >= kHongHeavyThreshold nnz in their strip
  CsrT<V> light;  ///< everything else
};

template <class V>
HongSplit<V> split_by_segment_weight(const CsrT<V>& A, const TilingSpec& spec) {
  const CsrT<V> empty{.rows = A.rows, .cols = A.cols, .row_ptr = {0}, .col_idx = {}, .val = {}};
  HongSplit<V> split{empty, empty};
  std::vector<i64> seg_count(static_cast<usize>(spec.num_strips(A.cols)));
  for (index_t r = 0; r < A.rows; ++r) {
    std::fill(seg_count.begin(), seg_count.end(), 0);
    for (index_t k = A.row_ptr[r]; k < A.row_ptr[r + 1]; ++k) {
      ++seg_count[A.col_idx[k] / spec.strip_width];
    }
    // A's rows are sorted and duplicate-free, so each part's are too.
    for (index_t k = A.row_ptr[r]; k < A.row_ptr[r + 1]; ++k) {
      const index_t c = A.col_idx[k];
      CsrT<V>& dst =
          seg_count[c / spec.strip_width] >= kHongHeavyThreshold ? split.heavy : split.light;
      dst.col_idx.push_back(c);
      dst.val.push_back(A.val[k]);
    }
    split.heavy.row_ptr.push_back(static_cast<index_t>(split.heavy.col_idx.size()));
    split.light.row_ptr.push_back(static_cast<index_t>(split.light.col_idx.size()));
  }
  return split;
}

}  // namespace

template <class V>
SpmmResult spmm_hong_hybrid(const SpmmOperandsT<V>& ops, const DenseMatrixT<V>& B,
                            const SpmmConfig& cfg) {
  using CT = typename VTraits<V>::compute_t;
  const CsrT<V>& A = *ops.csr;
  // The heavy/light split is the Hong scheme's own preprocessing, not a
  // plan artifact: always derived here.
  const HongSplit<V> split = split_by_segment_weight(A, cfg.tiling);

  const index_t K = B.cols();
  SpmmResult heavy_res;
  SpmmResult light_res;
  bool ran_heavy = false, ran_light = false;
  if (split.heavy.nnz() > 0) {
    // Tiling the heavy part is the Hong scheme's own preprocessing.
    const TiledDcsrT<V> tiles = tiled_dcsr_from_csr(split.heavy, cfg.tiling);
    heavy_res =
        spmm_tiled_dcsr_b_stationary({.csr = &split.heavy, .tiled_dcsr = &tiles}, B, cfg);
    ran_heavy = true;
  }
  if (split.light.nnz() > 0) {
    light_res = spmm_csr_row_warp({.csr = &split.light}, B, cfg);
    ran_light = true;
  }

  SpmmResult out;
  // Phase outputs merge at compute precision in a fixed order (heavy
  // then light), then store once at precision V — the same store
  // rounding discipline as a single-kernel run.
  DenseMatrixT<CT> acc(A.rows, K, CT{});
  auto merge_phase = [&](const SpmmResult& phase) {
    if constexpr (std::is_same_v<V, double>) {
      accumulate_dense(acc, phase.C64);
    } else {
      accumulate_dense(acc, phase.C);
    }
    out.counters += phase.counters;
    out.mem += phase.mem;
    // Phase preprocessing (heavy-part tiling) carries over; the split
    // pass itself is charged below.
    out.offline_prep_ns += phase.offline_prep_ns;
  };
  if (ran_heavy) merge_phase(heavy_res);
  if (ran_light) merge_phase(light_res);
  store_result_c<V>(out, std::move(acc));

  // The segment-weight split streams the whole CSR matrix once and
  // writes both parts — preprocessing on top of the heavy-part tiling.
  out.offline_prep_ns +=
      static_cast<double>(footprint(A).total() + footprint(split.heavy).total() +
                          footprint(split.light).total()) /
      cfg.arch.total_bandwidth_gbps();

  out.timing = compute_timing(cfg.arch, out.counters, out.mem, 1.0, 0.0);
  return out;
}

template SpmmResult spmm_hong_hybrid(const SpmmOperandsT<float>&,
                                     const DenseMatrixT<float>&, const SpmmConfig&);
template SpmmResult spmm_hong_hybrid(const SpmmOperandsT<double>&,
                                     const DenseMatrixT<double>&, const SpmmConfig&);
template SpmmResult spmm_hong_hybrid(const SpmmOperandsT<bf16_t>&,
                                     const DenseMatrixT<bf16_t>&, const SpmmConfig&);

}  // namespace nmdt::detail
