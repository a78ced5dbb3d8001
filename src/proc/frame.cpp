#include "proc/frame.hpp"

namespace nmdt::proc {

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string tagged;
  tagged.reserve(payload.size() + 1);
  tagged.push_back(static_cast<char>(type));
  tagged.append(payload);
  FieldWriter w(kPipeRules);
  w.put_frame(tagged);
  return std::move(w.out);
}

void FrameDecoder::feed(const void* data, usize n) {
  buf_.append(static_cast<const char*>(data), n);
}

std::optional<Frame> FrameDecoder::next() {
  const FrameScan f = scan_frame(std::string_view(buf_).substr(off_), kPipeRules);
  switch (f.status) {
    case FrameScan::kPartial:
      return std::nullopt;
    case FrameScan::kOversized:
      throw ParseError("worker pipe frame: implausible length " + std::to_string(f.len));
    case FrameScan::kCorrupt:
      throw ParseError("worker pipe frame: checksum mismatch (torn or bit-flipped)");
    case FrameScan::kComplete:
      break;
  }
  if (f.payload.empty()) {
    throw ParseError("worker pipe frame: empty payload (missing type tag)");
  }
  const u8 tag = static_cast<u8>(f.payload[0]);
  if (tag < static_cast<u8>(FrameType::kHello) ||
      tag > static_cast<u8>(FrameType::kShutdown)) {
    throw ParseError("worker pipe frame: unknown type tag " + std::to_string(int{tag}));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(tag);
  frame.payload.assign(f.payload.substr(1));
  off_ += f.size();
  // Compact once the consumed prefix dominates, keeping feed() O(1)
  // amortized without unbounded buffer growth across a long sweep.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return frame;
}

}  // namespace nmdt::proc
