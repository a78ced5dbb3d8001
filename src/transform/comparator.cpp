#include "transform/comparator.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace nmdt {

namespace {

struct Node {
  index_t coord = std::numeric_limits<index_t>::max();
  u64 mask = 0;
  bool valid = false;
};

/// One 2-input comparator unit (Fig. 15a): minimum coordinate plus the
/// merged position bitvector on ties.
Node combine(const Node& a, const Node& b, u64& ops) {
  ++ops;
  if (!a.valid) return b;
  if (!b.valid) return a;
  Node out;
  out.valid = true;
  if (a.coord < b.coord) {
    out.coord = a.coord;
    out.mask = a.mask;
  } else if (b.coord < a.coord) {
    out.coord = b.coord;
    out.mask = b.mask;
  } else {
    out.coord = a.coord;
    out.mask = a.mask | b.mask;  // tie: report all minimum positions
  }
  return out;
}

}  // namespace

MinReduceResult comparator_tree_min(std::span<const index_t> coords,
                                    std::span<const u8> valid) {
  NMDT_REQUIRE(coords.size() == valid.size(), "coords/valid length mismatch");
  NMDT_REQUIRE(coords.size() <= 64, "comparator tree limited to 64 lanes");
  MinReduceResult res;
  if (coords.empty()) return res;

  // One fixed 64-node array holds every tree level: each level is
  // written over the front of the one it reduces.
  std::array<Node, 64> level;
  usize width = coords.size();
  for (usize i = 0; i < width; ++i) {
    level[i].coord = coords[i];
    level[i].mask = u64{1} << i;
    level[i].valid = valid[i] != 0;
  }
  // Pairwise tree reduction, exactly the Fig. 15b topology.
  while (width > 1) {
    usize next = 0;
    for (usize i = 0; i + 1 < width; i += 2) {
      level[next++] = combine(level[i], level[i + 1], res.comparator_ops);
    }
    if (width % 2 == 1) level[next++] = level[width - 1];  // odd lane bypasses
    width = next;
  }
  res.any_valid = level[0].valid;
  if (res.any_valid) {
    res.min_coord = level[0].coord;
    res.lane_mask = level[0].mask;
  }
  return res;
}

namespace {

/// One element under the verdict semantics of ToleranceComparator::compare.
bool element_passes(double e, double a, double bound) {
  if (std::isnan(e)) return std::isnan(a);
  if (std::isinf(e)) return std::isinf(a) && std::signbit(a) == std::signbit(e);
  if (!std::isfinite(a)) return false;
  if (bound <= 0.0) {
    // No accumulation headroom: exact match (±0 conflate via ==, but a
    // bit-compare keeps -0 vs +0 from slipping through differently
    // signed non-zero patterns; == is the agreed semantics here).
    return e == a;
  }
  return std::abs(e - a) <= bound;
}

}  // namespace

template <class V>
std::vector<double> ToleranceComparator::row_scales(const CsrT<V>& A,
                                                    const DenseMatrixT<V>& B) {
  double max_b = 0.0;
  for (const V& v : B.data()) {
    const double b = std::abs(VTraits<V>::to_f64(v));
    if (b > max_b) max_b = b;
  }
  std::vector<double> scales(static_cast<usize>(A.rows), 0.0);
  for (index_t r = 0; r < A.rows; ++r) {
    const i64 nnz = A.row_ptr[r + 1] - A.row_ptr[r];
    double max_a = 0.0;
    for (index_t k = A.row_ptr[r]; k < A.row_ptr[r + 1]; ++k) {
      const double a = std::abs(VTraits<V>::to_f64(A.val[k]));
      if (a > max_a) max_a = a;
    }
    scales[static_cast<usize>(r)] = static_cast<double>(nnz) * max_a * max_b;
  }
  return scales;
}

ToleranceVerdict ToleranceComparator::compare(const DenseMatrixT<double>& expected,
                                              const DenseMatrixT<double>& actual,
                                              std::span<const double> row_scale) const {
  NMDT_REQUIRE(expected.rows() == actual.rows() && expected.cols() == actual.cols(),
               "tolerance compare: shape mismatch");
  NMDT_REQUIRE(static_cast<usize>(expected.rows()) == row_scale.size(),
               "tolerance compare: row_scale length mismatch");
  ToleranceVerdict v;
  const index_t K = expected.cols();
  for (index_t r = 0; r < expected.rows(); ++r) {
    const double max_val = row_scale[static_cast<usize>(r)];
    const double bound = eps_ > 0.0 ? eps_ * max_val : 0.0;
    const std::span<const double> e_row = expected.row(r);
    const std::span<const double> a_row = actual.row(r);
    for (index_t c = 0; c < K; ++c) {
      const double e = e_row[static_cast<usize>(c)];
      const double a = a_row[static_cast<usize>(c)];
      ++v.compared;
      if (max_val > 0.0 && std::isfinite(e) && std::isfinite(a)) {
        const double rel = std::abs(e - a) / max_val;
        if (rel > v.max_rel_error) v.max_rel_error = rel;
      }
      if (!element_passes(e, a, bound)) {
        if (v.mismatched == 0) {
          v.first_row = r;
          v.first_col = c;
          v.first_expected = e;
          v.first_actual = a;
        }
        ++v.mismatched;
      }
    }
  }
  v.pass = v.mismatched == 0;
  return v;
}

template std::vector<double> ToleranceComparator::row_scales(const CsrT<float>&,
                                                             const DenseMatrixT<float>&);
template std::vector<double> ToleranceComparator::row_scales(const CsrT<double>&,
                                                             const DenseMatrixT<double>&);
template std::vector<double> ToleranceComparator::row_scales(const CsrT<bf16_t>&,
                                                             const DenseMatrixT<bf16_t>&);

}  // namespace nmdt
