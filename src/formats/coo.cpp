#include "formats/coo.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace nmdt {

template <class V>
void CooT<V>::push(index_t r, index_t c, V v) {
  row.push_back(r);
  col.push_back(c);
  val.push_back(v);
}

template <class V>
void CooT<V>::coalesce() {
  const usize n = val.size();
  std::vector<usize> order(n);
  std::iota(order.begin(), order.end(), usize{0});
  std::sort(order.begin(), order.end(), [&](usize a, usize b) {
    if (row[a] != row[b]) return row[a] < row[b];
    return col[a] < col[b];
  });

  std::vector<index_t> nr, nc;
  std::vector<V> nv;
  nr.reserve(n);
  nc.reserve(n);
  nv.reserve(n);
  for (usize k : order) {
    if (!nr.empty() && nr.back() == row[k] && nc.back() == col[k]) {
      nv.back() = VTraits<V>::from_compute(VTraits<V>::to_compute(nv.back()) +
                                           VTraits<V>::to_compute(val[k]));
    } else {
      nr.push_back(row[k]);
      nc.push_back(col[k]);
      nv.push_back(val[k]);
    }
  }
  row = std::move(nr);
  col = std::move(nc);
  val = std::move(nv);
}

template <class V>
void CooT<V>::validate() const {
  NMDT_REQUIRE(rows >= 0 && cols >= 0, "COO dimensions must be non-negative");
  NMDT_REQUIRE(row.size() == val.size() && col.size() == val.size(),
               "COO vectors must have equal length");
  for (usize k = 0; k < val.size(); ++k) {
    NMDT_REQUIRE(row[k] >= 0 && row[k] < rows,
                 "COO row coordinate out of range at entry " + std::to_string(k));
    NMDT_REQUIRE(col[k] >= 0 && col[k] < cols,
                 "COO column coordinate out of range at entry " + std::to_string(k));
  }
}

template struct CooT<float>;
template struct CooT<double>;
template struct CooT<bf16_t>;

}  // namespace nmdt
