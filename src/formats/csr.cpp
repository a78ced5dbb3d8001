#include "formats/csr.hpp"

#include <string>

#include "util/error.hpp"

namespace nmdt {

template <class V>
double CsrT<V>::density() const {
  if (rows <= 0 || cols <= 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows) * static_cast<double>(cols));
}

template <class V>
void CsrT<V>::validate() const {
  NMDT_REQUIRE(rows >= 0 && cols >= 0, "CSR dimensions must be non-negative");
  NMDT_REQUIRE(row_ptr.size() == static_cast<usize>(rows) + 1,
               "CSR row_ptr must have rows+1 entries");
  NMDT_REQUIRE(col_idx.size() == val.size(), "CSR col_idx/val length mismatch");
  NMDT_REQUIRE(row_ptr.front() == 0, "CSR row_ptr must start at 0");
  NMDT_REQUIRE(row_ptr.back() == static_cast<index_t>(val.size()),
               "CSR row_ptr must end at nnz");
  for (index_t r = 0; r < rows; ++r) {
    NMDT_REQUIRE(row_ptr[r] <= row_ptr[r + 1],
                 "CSR row_ptr non-monotone at row " + std::to_string(r));
    for (index_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      NMDT_REQUIRE(col_idx[k] >= 0 && col_idx[k] < cols,
                   "CSR column index out of range at entry " + std::to_string(k));
      if (k > row_ptr[r]) {
        NMDT_REQUIRE(col_idx[k - 1] < col_idx[k],
                     "CSR column indices must be strictly ascending within row " +
                         std::to_string(r));
      }
    }
  }
}

template struct CsrT<float>;
template struct CsrT<double>;
template struct CsrT<bf16_t>;

}  // namespace nmdt
