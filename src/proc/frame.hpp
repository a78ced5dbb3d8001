// CRC-framed pipe protocol between the Supervisor and its worker
// processes (src/proc/supervisor.hpp).
//
// Frames and payload fields use the one binary codec (util/codec.hpp)
// under kPipeRules:
//   frame := u32 payload_len | payload | u32 crc32(payload)
// with payload[0] a FrameType tag and the rest type-specific fields.
// The decoder is incremental — a pipe read() delivers arbitrary byte
// slices — and strict: an implausible length, a CRC mismatch, an
// unknown type tag, or an empty payload is a typed ParseError, never
// UB and never a hang.  A *partial* trailing frame is simply "not yet"
// (next() returns nullopt); on a pipe it only becomes an error when
// the writer dies mid-frame, which the supervisor detects as EOF with
// a non-idle decoder.  Every codec failure on the pipe is a ParseError,
// not a FormatError: a torn or flipped frame is a *protocol* failure of
// an untrusted byte stream, like a malformed request line.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace nmdt::proc {

enum class FrameType : u8 {
  kHello = 1,      ///< worker → supervisor: ready (after rlimit/signal setup)
  kTask = 2,       ///< supervisor → worker: one task dispatch
  kResult = 3,     ///< worker → supervisor: one task outcome
  kHeartbeat = 4,  ///< worker → supervisor: liveness ping
  kShutdown = 5,   ///< supervisor → worker: exit cleanly
};

/// Payload cap (excluding the type tag).  Generous — result frames may
/// carry dense C panels for the service backend — but finite, so a
/// corrupt length prefix can never drive an allocation by itself.
inline constexpr u32 kMaxFramePayloadBytes = u32{1} << 28;

/// The pipe's codec rules: a string may fill a payload, and a frame is
/// a payload plus its type tag.
inline constexpr CodecRules kPipeRules{"worker pipe payload", kMaxFramePayloadBytes,
                                       kMaxFramePayloadBytes + 1, codec_throw<ParseError>};

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;  ///< type-specific fields (tag stripped)
};

/// One on-the-wire frame: length prefix, type tag, payload, CRC32.
/// Throws ParseError when the frame would be over the pipe cap.
std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame parser over an untrusted byte stream.
class FrameDecoder {
 public:
  /// Buffer `n` raw bytes from the pipe.
  void feed(const void* data, usize n);

  /// Next complete frame, or nullopt when more bytes are needed.
  /// Throws ParseError on a corrupt frame (bad length, bad CRC,
  /// unknown type, empty payload); the decoder is poisoned afterwards
  /// and must be discarded.
  std::optional<Frame> next();

  /// True when no partial frame is buffered — EOF here is a clean
  /// close, EOF with buffered bytes is a writer that died mid-frame.
  bool idle() const { return off_ == buf_.size(); }

 private:
  std::string buf_;
  usize off_ = 0;  ///< consumed prefix of buf_
};

}  // namespace nmdt::proc
