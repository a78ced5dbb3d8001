// Matrix profiling: the quantities the paper's heuristic machinery
// consumes (Sec. 3.1.4).
//
//  * normalized entropy H_norm (Eq. 1): Shannon entropy of the non-zero
//    mass across per-tile row segments, divided by Hartley entropy
//    log(A.nnz).  H_norm → 1 for scattered (uniform) non-zeros, lower
//    for clustered/skewed matrices.
//  * Sparsity Skewness Function SSF (Eq. 2):
//        SSF = (n_nnzrow / n) / mean(n_nnzrowstrip / n)
//              * A.nnz * (1 - H_norm)
//    Larger SSF ⇒ B-stationary predicted to win.  For uniform random
//    matrices almost every row segment is a singleton, so H_norm ≈ 1 and
//    SSF collapses towards 0 — which is exactly the huge dynamic range
//    (1e-17 … 1e3) visible on the Fig. 4 x-axis.
#pragma once

#include "formats/csr.hpp"
#include "formats/tiling.hpp"
#include "matgen/suite.hpp"

namespace nmdt {

struct MatrixProfile {
  MatrixStats stats;

  /// Fraction of globally non-empty rows, n_nnzrow / n.
  double nnzrow_frac = 0.0;
  /// Fraction of globally non-empty columns.
  double nnzcol_frac = 0.0;
  /// mean over vertical strips of (#non-empty rows in strip / n).
  double mean_strip_nnzrow_frac = 0.0;
  /// Σ over strips of #non-empty rows in the strip (the row-segment
  /// count that drives B-stationary's atomic C traffic).
  i64 total_strip_row_segments = 0;
  /// Σ over (strip × tile_height) tiles of #non-empty row segments.
  i64 total_tile_row_segments = 0;

  double h_norm = 0.0;  ///< Eq. 1, in [0, 1]
  double ssf = 0.0;     ///< Eq. 2
};

/// Compute the full profile in one pass over the tiling.
MatrixProfile profile_matrix(const Csr& csr, const TilingSpec& spec);

}  // namespace nmdt
