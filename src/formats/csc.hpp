// Compressed Sparse Column (CSC), the paper's baseline *storage* format
// for the near-memory engine (Sec. 4.1): columns are contiguous, so
// extracting a vertical strip is a contiguous walk from `col_ptr`, which
// is exactly what makes online strip/tile extraction cheap compared to
// CSR's jagged row frontier.
//
// Templated on the stored value scalar V (util/precision.hpp); `Csc`
// aliases the default-precision instantiation.
#pragma once

#include <vector>

#include "util/precision.hpp"
#include "util/types.hpp"

namespace nmdt {

template <class V>
struct CscT {
  using value_type = V;

  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> col_ptr;  ///< cols+1 entries, non-decreasing
  std::vector<index_t> row_idx;  ///< nnz entries, ascending within a column
  std::vector<V> val;            ///< nnz entries

  i64 nnz() const { return static_cast<i64>(val.size()); }
  double density() const;

  void validate() const;
};

using Csc = CscT<value_t>;

extern template struct CscT<float>;
extern template struct CscT<double>;
extern template struct CscT<bf16_t>;

}  // namespace nmdt
