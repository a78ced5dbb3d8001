// Remainder by a runtime 32-bit divisor without a divide instruction
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
// 2019): two multiplies, exact for every 32-bit numerator and every
// divisor >= 1.  The L2 set index and the channel hash take a remainder
// by a count that need not be a power of two on every simulated access.
#pragma once

#include "util/types.hpp"

namespace nmdt {

class FastMod32 {
 public:
  explicit FastMod32(u32 divisor) : m_(~u64{0} / divisor + 1), d_(divisor) {}

  u32 operator()(u32 a) const {
    return static_cast<u32>((static_cast<unsigned __int128>(m_ * a) * d_) >> 64);
  }

 private:
  u64 m_;  ///< ceil(2^64 / d), wrapping to 0 for d == 1
  u32 d_;
};

}  // namespace nmdt
