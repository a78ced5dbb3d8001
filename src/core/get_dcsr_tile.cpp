#include "core/get_dcsr_tile.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt {

DcsrTileHandle GetDCSRTile(const Csc& csc, index_t strip_id, index_t row_start,
                           std::span<index_t> col_frontier, const TilingSpec& spec,
                           ConversionEngine& engine) {
  spec.validate();
  obs::metrics().engine_get_dcsr_tile.add(1);
  obs::TraceSpan span("GetDCSRTile");
  const index_t col_begin = strip_id * spec.strip_width;
  NMDT_REQUIRE(col_begin >= 0 && col_begin < csc.cols, "strip_id out of range");
  const index_t col_end = std::min<index_t>(col_begin + spec.strip_width, csc.cols);
  const index_t lanes = col_end - col_begin;
  NMDT_REQUIRE(static_cast<index_t>(col_frontier.size()) >= lanes,
               "col_frontier must cover every strip column");

  // Rebuild the engine-side cursor from the caller's relative frontier.
  StripCursor cursor(csc, strip_id, spec);
  auto frontier = cursor.frontier();
  for (index_t l = 0; l < lanes; ++l) {
    const index_t off = col_frontier[l];
    NMDT_REQUIRE(off >= 0 && frontier[l] + off <= cursor.boundary()[l],
                 "col_frontier offset exceeds column length");
    frontier[l] += off;
  }

  DcsrTileHandle handle;
  handle.tile = engine.convert_tile_checked(csc, cursor, row_start, spec);
  handle.nnzrows = static_cast<index_t>(handle.tile.nnz_rows());
  handle.nnz = handle.tile.nnz();

  // Hand the advanced frontier back as within-column offsets.  Re-read
  // the span: a recovery retry may have reassigned the cursor's
  // frontier storage.
  frontier = cursor.frontier();
  for (index_t l = 0; l < lanes; ++l) {
    col_frontier[l] = frontier[l] - csc.col_ptr[col_begin + l];
  }
  span.arg("strip", static_cast<i64>(strip_id))
      .arg("row_begin", static_cast<i64>(row_start))
      .arg("nnzrows", static_cast<i64>(handle.nnzrows))
      .arg("nnz", static_cast<i64>(handle.nnz));
  return handle;
}

}  // namespace nmdt
