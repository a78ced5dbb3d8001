#include "formats/tiling.hpp"

#include <algorithm>

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace nmdt {

template <class V>
u32 dcsr_tile_crc(const DcsrTileT<V>& tile) {
  const index_t header[5] = {tile.strip_id, tile.row_begin, tile.col_begin,
                             tile.body.rows, tile.body.cols};
  u32 c = crc32(header, sizeof(header));
  c = crc32(tile.body.row_idx.data(), tile.body.row_idx.size() * sizeof(index_t), c);
  c = crc32(tile.body.row_ptr.data(), tile.body.row_ptr.size() * sizeof(index_t), c);
  c = crc32(tile.body.col_idx.data(), tile.body.col_idx.size() * sizeof(index_t), c);
  c = crc32(tile.body.val.data(), tile.body.val.size() * sizeof(V), c);
  return c;
}

template <class V>
bool verify_dcsr_tile(const DcsrTileT<V>& tile) {
  if (tile.crc_valid && dcsr_tile_crc(tile) != tile.crc) return false;
  try {
    tile.body.validate();
  } catch (const FormatError&) {
    return false;
  }
  return true;
}

void TilingSpec::validate() const {
  NMDT_CHECK_CONFIG(strip_width > 0, "TilingSpec.strip_width must be positive");
  NMDT_CHECK_CONFIG(tile_height > 0, "TilingSpec.tile_height must be positive");
}

namespace {

/// Gather per-tile COO buckets in one pass over the CSR matrix.
template <class V>
struct TileBuckets {
  index_t num_strips = 0;
  index_t num_tile_rows = 0;
  // bucket[s * num_tile_rows + t] holds (local_row, local_col, val).
  struct Entry {
    index_t r, c;
    V v;
  };
  std::vector<std::vector<Entry>> buckets;
};

template <class V>
TileBuckets<V> bucketize(const CsrT<V>& csr, const TilingSpec& spec) {
  TileBuckets<V> out;
  out.num_strips = spec.num_strips(csr.cols);
  out.num_tile_rows = spec.tiles_per_strip(csr.rows);
  out.buckets.resize(static_cast<usize>(out.num_strips) * out.num_tile_rows);
  for (index_t r = 0; r < csr.rows; ++r) {
    const index_t t = r / spec.tile_height;
    const index_t lr = r - t * spec.tile_height;
    for (index_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
      const index_t c = csr.col_idx[k];
      const index_t s = c / spec.strip_width;
      const index_t lc = c - s * spec.strip_width;
      out.buckets[static_cast<usize>(s) * out.num_tile_rows + t].push_back(
          {lr, lc, csr.val[k]});
    }
  }
  return out;
}

}  // namespace

template <class V>
TiledDcsrT<V> tiled_dcsr_from_csr(const CsrT<V>& csr, const TilingSpec& spec) {
  csr.validate();
  spec.validate();
  TiledDcsrT<V> out;
  out.rows = csr.rows;
  out.cols = csr.cols;
  out.spec = spec;

  TileBuckets<V> b = bucketize(csr, spec);
  out.strips.resize(b.num_strips);
  for (index_t s = 0; s < b.num_strips; ++s) {
    out.strips[s].resize(b.num_tile_rows);
    for (index_t t = 0; t < b.num_tile_rows; ++t) {
      DcsrTileT<V>& tile = out.strips[s][t];
      tile.strip_id = s;
      tile.row_begin = t * spec.tile_height;
      tile.col_begin = s * spec.strip_width;
      tile.body.rows = std::min<index_t>(spec.tile_height, csr.rows - tile.row_begin);
      tile.body.cols = std::min<index_t>(spec.strip_width, csr.cols - tile.col_begin);
      tile.body.row_ptr.push_back(0);
      const auto& entries = b.buckets[static_cast<usize>(s) * b.num_tile_rows + t];
      // Entries arrive row-major (csr iteration order), so consecutive
      // equal local rows form one dense-row segment.
      index_t current_row = -1;
      for (const auto& e : entries) {
        if (e.r != current_row) {
          tile.body.row_idx.push_back(e.r);
          tile.body.row_ptr.push_back(tile.body.row_ptr.back());
          current_row = e.r;
        }
        tile.body.col_idx.push_back(e.c);
        tile.body.val.push_back(e.v);
        ++tile.body.row_ptr.back();
      }
    }
  }
  return out;
}

template <class V>
TiledCsrT<V> tiled_csr_from_csr(const CsrT<V>& csr, const TilingSpec& spec) {
  csr.validate();
  spec.validate();
  TiledCsrT<V> out;
  out.rows = csr.rows;
  out.cols = csr.cols;
  out.spec = spec;

  TileBuckets<V> b = bucketize(csr, spec);
  out.strips.resize(b.num_strips);
  for (index_t s = 0; s < b.num_strips; ++s) {
    out.strips[s].resize(b.num_tile_rows);
    for (index_t t = 0; t < b.num_tile_rows; ++t) {
      CsrTileT<V>& tile = out.strips[s][t];
      tile.strip_id = s;
      tile.row_begin = t * spec.tile_height;
      tile.col_begin = s * spec.strip_width;
      tile.body.rows = std::min<index_t>(spec.tile_height, csr.rows - tile.row_begin);
      tile.body.cols = std::min<index_t>(spec.strip_width, csr.cols - tile.col_begin);
      tile.body.row_ptr.assign(static_cast<usize>(tile.body.rows) + 1, 0);
      const auto& entries = b.buckets[static_cast<usize>(s) * b.num_tile_rows + t];
      for (const auto& e : entries) ++tile.body.row_ptr[e.r + 1];
      for (index_t r = 0; r < tile.body.rows; ++r) {
        tile.body.row_ptr[r + 1] += tile.body.row_ptr[r];
      }
      tile.body.col_idx.resize(entries.size());
      tile.body.val.resize(entries.size());
      std::vector<index_t> cursor(tile.body.row_ptr.begin(), tile.body.row_ptr.end() - 1);
      for (const auto& e : entries) {
        const index_t dst = cursor[e.r]++;
        tile.body.col_idx[dst] = e.c;
        tile.body.val[dst] = e.v;
      }
    }
  }
  return out;
}

template <class V>
CooT<V> coo_from_tiled(const TiledDcsrT<V>& tiled) {
  CooT<V> coo;
  coo.rows = tiled.rows;
  coo.cols = tiled.cols;
  for (const auto& strip : tiled.strips) {
    for (const auto& tile : strip) {
      for (i64 k = 0; k < tile.body.nnz_rows(); ++k) {
        const index_t gr = tile.row_begin + tile.body.dense_row(k);
        const auto cols = tile.body.dense_row_cols(k);
        const auto vals = tile.body.dense_row_vals(k);
        for (usize j = 0; j < cols.size(); ++j) {
          coo.push(gr, tile.col_begin + cols[j], vals[j]);
        }
      }
    }
  }
  return coo;
}

template <class V>
CooT<V> coo_from_tiled(const TiledCsrT<V>& tiled) {
  CooT<V> coo;
  coo.rows = tiled.rows;
  coo.cols = tiled.cols;
  for (const auto& strip : tiled.strips) {
    for (const auto& tile : strip) {
      for (index_t r = 0; r < tile.body.rows; ++r) {
        for (index_t k = tile.body.row_ptr[r]; k < tile.body.row_ptr[r + 1]; ++k) {
          coo.push(tile.row_begin + r, tile.col_begin + tile.body.col_idx[k],
                   tile.body.val[k]);
        }
      }
    }
  }
  return coo;
}

template <class V>
std::vector<DcsrT<V>> strip_dcsr_from_csr(const CsrT<V>& csr, index_t strip_width) {
  TilingSpec spec;
  spec.strip_width = strip_width;
  spec.tile_height = std::max<index_t>(csr.rows, 1);  // one tile = whole strip
  TiledDcsrT<V> tiled = tiled_dcsr_from_csr(csr, spec);
  std::vector<DcsrT<V>> out;
  out.reserve(tiled.strips.size());
  for (auto& strip : tiled.strips) out.push_back(std::move(strip.front().body));
  return out;
}

template <class V>
std::vector<double> strip_nonzero_row_density(const CsrT<V>& csr, index_t strip_width) {
  const std::vector<DcsrT<V>> strips = strip_dcsr_from_csr(csr, strip_width);
  std::vector<double> density;
  density.reserve(strips.size());
  for (const auto& s : strips) {
    density.push_back(csr.rows == 0
                          ? 0.0
                          : static_cast<double>(s.nnz_rows()) / static_cast<double>(csr.rows));
  }
  return density;
}

template u32 dcsr_tile_crc(const DcsrTileT<float>&);
template u32 dcsr_tile_crc(const DcsrTileT<double>&);
template u32 dcsr_tile_crc(const DcsrTileT<bf16_t>&);
template bool verify_dcsr_tile(const DcsrTileT<float>&);
template bool verify_dcsr_tile(const DcsrTileT<double>&);
template bool verify_dcsr_tile(const DcsrTileT<bf16_t>&);
template TiledDcsrT<float> tiled_dcsr_from_csr(const CsrT<float>&, const TilingSpec&);
template TiledDcsrT<double> tiled_dcsr_from_csr(const CsrT<double>&, const TilingSpec&);
template TiledDcsrT<bf16_t> tiled_dcsr_from_csr(const CsrT<bf16_t>&, const TilingSpec&);
template TiledCsrT<float> tiled_csr_from_csr(const CsrT<float>&, const TilingSpec&);
template TiledCsrT<double> tiled_csr_from_csr(const CsrT<double>&, const TilingSpec&);
template TiledCsrT<bf16_t> tiled_csr_from_csr(const CsrT<bf16_t>&, const TilingSpec&);
template CooT<float> coo_from_tiled(const TiledDcsrT<float>&);
template CooT<double> coo_from_tiled(const TiledDcsrT<double>&);
template CooT<bf16_t> coo_from_tiled(const TiledDcsrT<bf16_t>&);
template CooT<float> coo_from_tiled(const TiledCsrT<float>&);
template CooT<double> coo_from_tiled(const TiledCsrT<double>&);
template CooT<bf16_t> coo_from_tiled(const TiledCsrT<bf16_t>&);
template std::vector<DcsrT<float>> strip_dcsr_from_csr(const CsrT<float>&, index_t);
template std::vector<DcsrT<double>> strip_dcsr_from_csr(const CsrT<double>&, index_t);
template std::vector<DcsrT<bf16_t>> strip_dcsr_from_csr(const CsrT<bf16_t>&, index_t);
template std::vector<double> strip_nonzero_row_density(const CsrT<float>&, index_t);
template std::vector<double> strip_nonzero_row_density(const CsrT<double>&, index_t);
template std::vector<double> strip_nonzero_row_density(const CsrT<bf16_t>&, index_t);

}  // namespace nmdt
