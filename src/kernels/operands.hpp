// Pre-converted operand bundle consumed by the SpMM kernels.
//
// Every format conversion is a plan's (core/plan.hpp), made the first
// time a kernel needs the artifact.  A kernel reads the artifacts it
// needs (artifacts_of, kernels/spmm.hpp) from this bundle and never
// converts: the kernel entry (`run_spmm`) checks the bundle once and
// throws ConfigError when it is incomplete or was cut under another
// TilingSpec.
//
// All pointers are non-owning views; the caller (SpmmPlan::operands_for)
// guarantees they outlive the kernel call.  Pointers to artifacts the
// kernel does not read may be null.  A strip-skip table is no artifact:
// the offline tiled formats know their empty strips from their tiles,
// and the online kernel from CSC's col_ptr.
//
// The bundle is typed on the stored value precision V: every format in
// one bundle carries the same scalar type, so a kernel can never mix
// operands rounded at different precisions.
#pragma once

#include "formats/csc.hpp"
#include "formats/csr.hpp"
#include "formats/dcsr.hpp"
#include "formats/tiling.hpp"

namespace nmdt {

template <class V>
struct SpmmOperandsT {
  const CsrT<V>* csr = nullptr;                ///< every kernel
  const CscT<V>* csc = nullptr;                ///< online tiled-DCSR kernel
  const DcsrT<V>* dcsr = nullptr;              ///< untiled DCSR kernels
  const TiledDcsrT<V>* tiled_dcsr = nullptr;   ///< offline B-stationary arm
  const TiledCsrT<V>* tiled_csr = nullptr;     ///< tiled-CSR strawman, A-stationary
};

}  // namespace nmdt
