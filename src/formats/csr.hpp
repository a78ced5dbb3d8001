// Compressed Sparse Row (CSR), the community-standard storage format
// (paper Sec. 2, Fig. 1): `val`/`col_idx` hold the nnz entries in
// row-major order, `row_ptr[i]..row_ptr[i+1]` delimits row i.
//
// The container is templated on the stored value scalar V (float /
// double / bf16_t — see util/precision.hpp); `Csr` aliases the
// default-precision instantiation so existing call sites are unchanged.
#pragma once

#include <span>
#include <vector>

#include "util/precision.hpp"
#include "util/types.hpp"

namespace nmdt {

template <class V>
struct CsrT {
  using value_type = V;

  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row_ptr;  ///< rows+1 entries, non-decreasing
  std::vector<index_t> col_idx;  ///< nnz entries, ascending within a row
  std::vector<V> val;            ///< nnz entries

  i64 nnz() const { return static_cast<i64>(val.size()); }
  double density() const;

  i64 row_nnz(index_t r) const { return row_ptr[r + 1] - row_ptr[r]; }
  bool row_empty(index_t r) const { return row_nnz(r) == 0; }

  std::span<const index_t> row_cols(index_t r) const {
    return {col_idx.data() + row_ptr[r], static_cast<usize>(row_nnz(r))};
  }
  std::span<const V> row_vals(index_t r) const {
    return {val.data() + row_ptr[r], static_cast<usize>(row_nnz(r))};
  }

  /// Throw FormatError on non-monotone row_ptr, mismatched lengths, or
  /// out-of-range / non-ascending column indices.
  void validate() const;
};

using Csr = CsrT<value_t>;

extern template struct CsrT<float>;
extern template struct CsrT<double>;
extern template struct CsrT<bf16_t>;

}  // namespace nmdt
