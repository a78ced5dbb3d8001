// The minimum-coordinate comparator tree of the conversion engine
// (paper Fig. 15).
//
// N lane coordinates (the row indices at each column's frontier) reduce
// through a binary tree of 2-input comparator units.  Each unit forwards
// the smaller coordinate and a bitvector marking *every* position that
// holds the minimum — ties must merge (min[3:0] = 0101 in the paper's
// example) because one engine step consumes all columns whose frontier
// sits on the same row.  The functional model mirrors that structure
// stage by stage so the unit tests can check tie handling exactly as
// the hardware would produce it, and so stage/op counts feed the
// Sec. 5.3 pipeline model.
#pragma once

#include <span>
#include <vector>

#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "util/precision.hpp"

namespace nmdt {

struct MinReduceResult {
  index_t min_coord = 0;  ///< smallest valid coordinate
  u64 lane_mask = 0;      ///< bit i set ⇔ lane i holds min_coord
  bool any_valid = false;
  u64 comparator_ops = 0; ///< 2-input comparisons performed (N-1 for N lanes)
};

/// Hierarchical reduction over up to 64 lanes. `valid[i]` false means
/// lane i has exhausted its column (boundary reached) and must not win.
/// Allocation-free.  The conversion engine computes the same answer
/// from its row buckets; this tree is the Fig. 15b reference the engine
/// oracle test and bench/micro_convert.cpp run.
MinReduceResult comparator_tree_min(std::span<const index_t> coords,
                                    std::span<const u8> valid);

// ---------------------------------------------------------------------------
// Result-tolerance comparison (the fSPMV-style verification bound).
//
// Exact bitwise comparison is the right verdict only when the kernel
// and the reference accumulate in the same precision; across precisions
// (bf16/f32 kernel vs the binary64 reference) the honest check is the
// normalized bound used by sparse BLAS test suites:
//
//     |expected - actual| / max_val < eps        (per element)
//
// where max_val bounds the magnitude the accumulation could legitimately
// reach for that C row: row_nnz(A, r) * max|A_row| * max|B|.  The bound
// scales with the number of FMAs feeding the element, so a long row is
// allowed proportionally more rounding drift than a short one.
// ---------------------------------------------------------------------------

/// Outcome of a tolerance comparison over a whole C matrix.
struct ToleranceVerdict {
  bool pass = true;
  u64 mismatched = 0;          ///< elements over the bound (or non-finite kind mismatch)
  u64 compared = 0;            ///< elements examined
  double max_rel_error = 0.0;  ///< max |e-a|/max_val over rows with max_val > 0
  index_t first_row = -1;      ///< first failing element (row-major order)
  index_t first_col = -1;
  double first_expected = 0.0;
  double first_actual = 0.0;
};

/// Element-tolerance comparator for kernel output vs the binary64
/// reference.  Stateless apart from eps; one instance can verify many
/// results.
class ToleranceComparator {
 public:
  /// eps <= 0 degenerates to exact comparison everywhere.
  explicit ToleranceComparator(double eps) : eps_(eps) {}

  double eps() const { return eps_; }

  /// Per-row magnitude bounds max_val[r] = row_nnz(r)·max|A_row|·max|B|.
  /// An empty row (or all-zero row/B) yields 0, which demands an exact
  /// match for that row — there is no accumulation to excuse drift.
  template <class V>
  static std::vector<double> row_scales(const CsrT<V>& A, const DenseMatrixT<V>& B);

  /// Compare `actual` against `expected` using per-row bounds
  /// `row_scale` (one entry per C row).  Verdict semantics:
  ///  * finite elements: fail iff |e-a| > eps·max_val (the boundary
  ///    |e-a| == eps·max_val passes);
  ///  * max_val == 0: fail unless bit-equal as doubles (±0 conflate);
  ///  * NaN expected: pass iff actual is NaN (payload ignored);
  ///  * ±Inf expected: pass iff actual is the same-signed infinity.
  ToleranceVerdict compare(const DenseMatrixT<double>& expected,
                           const DenseMatrixT<double>& actual,
                           std::span<const double> row_scale) const;

  /// Convenience: derive the bounds from (A, B) and compare.
  template <class V>
  ToleranceVerdict compare(const DenseMatrixT<double>& expected,
                           const DenseMatrixT<double>& actual, const CsrT<V>& A,
                           const DenseMatrixT<V>& B) const {
    return compare(expected, actual, row_scales(A, B));
  }

 private:
  double eps_;
};

}  // namespace nmdt
