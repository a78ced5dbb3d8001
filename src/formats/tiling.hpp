// Vertical-strip tiling of the sparse input matrix A (paper Sec. 3).
//
// A is cut into vertical strips of `strip_width` columns (64 in the
// paper, matching the 64x64 B tile held in shared memory), and each
// strip into tiles of `tile_height` rows (DCSR_HEIGHT = 64 in the
// Fig. 11 API).  A tile stores *local* coordinates:
//   * row indices in [0, tile_height)  relative to the tile's row_begin,
//   * column indices in [0, strip_width) relative to the strip's
//     col_begin,
// because that is what the hardware engine emits and what the kernel
// needs to index the shared-memory-resident B tile.  Globals are
// recovered via row_begin/col_begin.
//
// Tiled containers are templated on the stored value scalar V
// (util/precision.hpp); the unsuffixed names alias the default-precision
// instantiations.
#pragma once

#include <vector>

#include "formats/coo.hpp"
#include "formats/csc.hpp"
#include "formats/csr.hpp"
#include "formats/dcsr.hpp"
#include "util/precision.hpp"

namespace nmdt {

struct TilingSpec {
  index_t strip_width = 64;
  index_t tile_height = 64;

  bool operator==(const TilingSpec&) const = default;

  void validate() const;

  index_t num_strips(index_t cols) const {
    return (cols + strip_width - 1) / strip_width;
  }
  index_t tiles_per_strip(index_t rows) const {
    return (rows + tile_height - 1) / tile_height;
  }
};

/// One tile of A in DCSR form (the unit returned by GetDCSRTile).
template <class V>
struct DcsrTileT {
  index_t strip_id = 0;
  index_t row_begin = 0;  ///< global row of the tile's first row
  index_t col_begin = 0;  ///< global column of the strip's first column
  DcsrT<V> body;          ///< body.rows = tile height, body.cols = strip width (clamped)
  u32 crc = 0;            ///< CRC32 over body arrays, stamped at conversion
  bool crc_valid = false; ///< offline-built tiles skip the checksum

  i64 nnz() const { return body.nnz(); }
  i64 nnz_rows() const { return body.nnz_rows(); }
};

using DcsrTile = DcsrTileT<value_t>;

/// One tile of A kept in CSR form (the inefficient strawman of Fig. 6).
template <class V>
struct CsrTileT {
  index_t strip_id = 0;
  index_t row_begin = 0;
  index_t col_begin = 0;
  CsrT<V> body;

  i64 nnz() const { return body.nnz(); }
};

using CsrTile = CsrTileT<value_t>;

template <class V>
struct TiledDcsrT {
  index_t rows = 0;
  index_t cols = 0;
  TilingSpec spec;
  /// strips[s][t] is the tile at strip s, rows [t*H, (t+1)*H). All tiles
  /// are materialized (empty tiles carry only the 4-byte row_ptr stub).
  std::vector<std::vector<DcsrTileT<V>>> strips;

  index_t num_strips() const { return static_cast<index_t>(strips.size()); }
};

using TiledDcsr = TiledDcsrT<value_t>;

template <class V>
struct TiledCsrT {
  index_t rows = 0;
  index_t cols = 0;
  TilingSpec spec;
  std::vector<std::vector<CsrTileT<V>>> strips;

  index_t num_strips() const { return static_cast<index_t>(strips.size()); }
};

using TiledCsr = TiledCsrT<value_t>;

/// CRC32 over a tile's body arrays (row_idx, row_ptr, col_idx, val) and
/// its coordinate header — the integrity fingerprint the conversion
/// engine stamps on each freshly fabricated tile.
template <class V>
u32 dcsr_tile_crc(const DcsrTileT<V>& tile);

/// Integrity check at the consumption point: structural validate() of
/// the body plus (when crc_valid) a CRC recheck against `tile.crc`.
/// Returns false instead of throwing so recovery paths can retry.
template <class V>
bool verify_dcsr_tile(const DcsrTileT<V>& tile);

/// Offline tiling (the preprocessing step whose cost and storage the
/// near-memory engine avoids).
template <class V>
TiledDcsrT<V> tiled_dcsr_from_csr(const CsrT<V>& csr, const TilingSpec& spec);
template <class V>
TiledCsrT<V> tiled_csr_from_csr(const CsrT<V>& csr, const TilingSpec& spec);

/// Reassemble into global-coordinate COO — used by the partition-property
/// tests (every non-zero appears in exactly one tile).
template <class V>
CooT<V> coo_from_tiled(const TiledDcsrT<V>& tiled);
template <class V>
CooT<V> coo_from_tiled(const TiledCsrT<V>& tiled);

/// Per-strip DCSR over all rows (no tile_height cut). This is the
/// "strip" granularity used in the Fig. 5 density analysis.
template <class V>
std::vector<DcsrT<V>> strip_dcsr_from_csr(const CsrT<V>& csr, index_t strip_width);

/// Fraction of rows with at least one non-zero, per vertical strip
/// (the quantity histogrammed in Fig. 5).
template <class V>
std::vector<double> strip_nonzero_row_density(const CsrT<V>& csr, index_t strip_width);

}  // namespace nmdt
