#include "gpusim/interleave.hpp"

#include "util/error.hpp"

namespace nmdt {

Interleaver::Interleaver(const ArchConfig& arch) {
  arch.validate();
  channel_mod_ = FastMod32(static_cast<u32>(arch.pseudo_channels));
  granule_shift_ = 0;
  while ((i64{1} << granule_shift_) < arch.interleave_bytes) ++granule_shift_;
  NMDT_CHECK_CONFIG((i64{1} << granule_shift_) == arch.interleave_bytes,
                    "interleave_bytes must be a power of two");
}

}  // namespace nmdt
