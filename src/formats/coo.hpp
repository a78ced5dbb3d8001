// Coordinate-list (COO) sparse format.
//
// COO is the interchange format: Matrix Market files deserialize into it
// (paper Sec. 4.1 notes MM uses COO) before compression into CSR/CSC.
//
// Templated on the stored value scalar V (util/precision.hpp); `Coo`
// aliases the default-precision instantiation.
#pragma once

#include <vector>

#include "util/precision.hpp"
#include "util/types.hpp"

namespace nmdt {

template <class V>
struct CooT {
  using value_type = V;

  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row;  ///< row coordinate per non-zero
  std::vector<index_t> col;  ///< column coordinate per non-zero
  std::vector<V> val;        ///< value per non-zero

  i64 nnz() const { return static_cast<i64>(val.size()); }

  /// Append one entry (no duplicate detection; see coalesce()).
  void push(index_t r, index_t c, V v);

  /// Sort entries into row-major order and sum duplicates in place.
  /// The order is that of std::sort over (row, col), which is not
  /// stable: each run of duplicates sums left to right in the order
  /// that sort leaves it, starting from its first entry there.
  /// Summation happens in the compute type of V (widen-add-narrow for
  /// bf16), matching the kernel accumulation discipline.
  void coalesce();

  /// Throw FormatError unless coordinates are in range and vector
  /// lengths agree.
  void validate() const;
};

using Coo = CooT<value_t>;

extern template struct CooT<float>;
extern template struct CooT<double>;
extern template struct CooT<bf16_t>;

}  // namespace nmdt
