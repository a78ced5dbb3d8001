// The one binary codec of the checkpoint journal (core/journal), the
// worker pipe (proc/frame) and the .bin matrix file (formats/serialize):
// FieldWriter appends little-endian fixed-width fields, u32-length-
// prefixed strings and raw bytes; FieldReader reads them back,
// bounds-checked; put_frame and scan_frame are the one CRC frame,
//   frame := u32 payload_len | payload | u32 crc32(payload)
//
// Each format passes its CodecRules: message prefix, size caps and
// typed error.  The writer refuses what the reader refuses: a string
// or frame over its cap throws on the way out, naming its size.
// scan_frame only reports; each caller maps a partial frame to its own
// policy (journal: torn tail, pipe: "not yet").
#pragma once

#include <string>
#include <string_view>

#include "util/types.hpp"

namespace nmdt {

/// Throws a format's typed error carrying `message`.
using CodecThrow = void (*)(const std::string& message);

template <class E>
[[noreturn]] void codec_throw(const std::string& message) {
  throw E(message);
}

struct CodecRules {
  const char* name;      ///< message prefix, e.g. "worker pipe payload"
  u32 max_string;        ///< cap on a length-prefixed string
  u32 max_frame;         ///< cap on a frame payload
  CodecThrow error;  ///< a read past the end, bytes left unread, or a length over its cap
};

/// Bytes a frame adds around its payload: the length word and the CRC.
inline constexpr usize kFrameOverhead = 2 * sizeof(u32);

class FieldWriter {
 public:
  explicit FieldWriter(const CodecRules& rules) : rules_(&rules) {}

  void bytes(const void* p, usize n) { out.append(static_cast<const char*>(p), n); }
  void put_u8(u8 v) { bytes(&v, sizeof(v)); }
  void put_u32(u32 v) { bytes(&v, sizeof(v)); }
  void put_u64(u64 v) { bytes(&v, sizeof(v)); }
  void put_i64(i64 v) { bytes(&v, sizeof(v)); }
  void put_f64(double v) { bytes(&v, sizeof(v)); }
  void put_str(std::string_view s);          ///< throws `error` past max_string
  void put_frame(std::string_view payload);  ///< throws `error` past max_frame

  std::string out;

 private:
  const CodecRules* rules_;
};

class FieldReader {
 public:
  FieldReader(std::string_view bytes, const CodecRules& rules)
      : p_(bytes.data()), left_(bytes.size()), rules_(&rules) {}

  void bytes(void* dst, usize n, const char* what);
  u8 get_u8(const char* what);
  u32 get_u32(const char* what);
  u64 get_u64(const char* what);
  i64 get_i64(const char* what);
  double get_f64(const char* what);
  std::string get_str(const char* what);  ///< throws `error` past max_string
  /// Throws `error` unless every byte was consumed.
  void expect_done(const char* what) const;

 private:
  const char* p_;
  usize left_;
  const CodecRules* rules_;
};

struct FrameScan {
  enum Status : u8 { kComplete, kPartial, kOversized, kCorrupt };
  Status status = kPartial;
  u32 len = 0;               ///< payload length, once the length word is in
  std::string_view payload;  ///< the CRC-verified payload (kComplete only)

  usize size() const { return kFrameOverhead + len; }
};

/// The frame at the front of `bytes`: complete, partial, over max_frame
/// (reported from the length word alone, so a corrupt length never
/// waits for bytes that will not come) or a CRC mismatch.  Never throws.
FrameScan scan_frame(std::string_view bytes, const CodecRules& rules);

}  // namespace nmdt
