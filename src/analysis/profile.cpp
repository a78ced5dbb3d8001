#include "analysis/profile.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace nmdt {

namespace {

/// Per-(strip, tile-row) row-segment nnz counts, without materializing
/// tiles: one pass over CSR entries accumulating into a dense map of
/// (strip, local row) for the current tile row of rows.
struct SegmentScan {
  std::vector<i64> tile_segments;    ///< nnz per (tile, row) segment
  std::vector<i64> strip_rows;       ///< #non-empty rows per strip
  i64 num_strips = 0;
};

SegmentScan scan_segments(const Csr& csr, const TilingSpec& spec) {
  SegmentScan out;
  out.num_strips = spec.num_strips(csr.cols);
  out.strip_rows.assign(static_cast<usize>(out.num_strips), 0);

  // seen_in_row[s] != current row marker → first touch of (strip s, row r).
  std::vector<index_t> strip_seen(static_cast<usize>(out.num_strips), -1);
  // per-strip running segment nnz for the current row
  std::vector<i64> seg_pos(static_cast<usize>(out.num_strips), -1);

  for (index_t r = 0; r < csr.rows; ++r) {
    for (index_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
      const index_t s = csr.col_idx[k] / spec.strip_width;
      if (strip_seen[s] != r) {
        strip_seen[s] = r;
        ++out.strip_rows[s];
        out.tile_segments.push_back(0);
        seg_pos[s] = static_cast<i64>(out.tile_segments.size()) - 1;
      }
      ++out.tile_segments[seg_pos[s]];
    }
  }
  return out;
}

}  // namespace

MatrixProfile profile_matrix(const Csr& csr, const TilingSpec& spec) {
  spec.validate();
  MatrixProfile p;
  p.stats = compute_stats(csr);

  const SegmentScan scan = scan_segments(csr, spec);
  p.total_strip_row_segments = 0;
  for (i64 rows_in_strip : scan.strip_rows) p.total_strip_row_segments += rows_in_strip;
  p.total_tile_row_segments = static_cast<i64>(scan.tile_segments.size());

  if (csr.rows > 0) {
    p.nnzrow_frac = static_cast<double>(p.stats.nonzero_rows) / csr.rows;
    double strip_frac_sum = 0.0;
    for (i64 rows_in_strip : scan.strip_rows) {
      strip_frac_sum += static_cast<double>(rows_in_strip) / csr.rows;
    }
    p.mean_strip_nnzrow_frac =
        scan.num_strips > 0 ? strip_frac_sum / static_cast<double>(scan.num_strips) : 0.0;
  }
  if (csr.cols > 0) {
    p.nnzcol_frac = static_cast<double>(p.stats.nonzero_cols) / csr.cols;
  }

  const i64 nnz = csr.nnz();
  if (nnz <= 1) {
    p.h_norm = 0.0;
    p.ssf = 0.0;
    return p;
  }
  double h = 0.0;
  const double total = static_cast<double>(nnz);
  for (i64 seg : scan.tile_segments) {
    const double prob = static_cast<double>(seg) / total;
    h -= prob * std::log(prob);
  }
  p.h_norm = h / std::log(total);

  // Eq. 2. Guard the denominator: a matrix with zero strip occupancy has
  // no work at all.
  if (p.mean_strip_nnzrow_frac > 0.0) {
    p.ssf = (p.nnzrow_frac / p.mean_strip_nnzrow_frac) * static_cast<double>(nnz) *
            (1.0 - p.h_norm);
  }
  return p;
}

}  // namespace nmdt
