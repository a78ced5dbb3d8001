#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace nmdt {

namespace {

constexpr u32 kPoly = 0xEDB88320u;

/// Slice-by-8 tables: t[0] is the bytewise table; t[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so eight table
/// lookups fold eight input bytes at once.
using Tables = std::array<std::array<u32, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (usize k = 1; k < t.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

u32 crc32(const void* data, usize len, u32 seed) {
  const auto& t = kTables;
  const u8* p = static_cast<const u8*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; p += 8, len -= 8) {
      u32 lo = 0;
      u32 hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace nmdt
