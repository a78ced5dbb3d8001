#include "util/codec.hpp"

#include <cstdlib>
#include <cstring>

#include "util/crc32.hpp"

namespace nmdt {

namespace {

[[noreturn]] void fail(CodecThrow thrower, const std::string& message) {
  thrower(message);
  std::abort();  // every CodecThrow throws
}

void check_cap(const CodecRules& rules, const char* what, usize n, u32 cap) {
  if (n <= cap) return;
  fail(rules.error, std::string(rules.name) + ": " + what + " of " + std::to_string(n) +
                        " bytes is over the " + std::to_string(cap) + "-byte cap");
}

}  // namespace

void FieldWriter::put_str(std::string_view s) {
  check_cap(*rules_, "string", s.size(), rules_->max_string);
  put_u32(static_cast<u32>(s.size()));
  bytes(s.data(), s.size());
}

void FieldWriter::put_frame(std::string_view payload) {
  check_cap(*rules_, "frame payload", payload.size(), rules_->max_frame);
  out.reserve(out.size() + payload.size() + kFrameOverhead);
  put_u32(static_cast<u32>(payload.size()));
  bytes(payload.data(), payload.size());
  put_u32(crc32(payload.data(), payload.size()));
}

void FieldReader::bytes(void* dst, usize n, const char* what) {
  if (n > left_) fail(rules_->error, std::string(rules_->name) + " truncated reading " + what);
  if (n > 0) std::memcpy(dst, p_, n);  // empty vectors have no storage
  p_ += n;
  left_ -= n;
}

u8 FieldReader::get_u8(const char* what) { u8 v = 0; bytes(&v, sizeof(v), what); return v; }
u32 FieldReader::get_u32(const char* what) { u32 v = 0; bytes(&v, sizeof(v), what); return v; }
u64 FieldReader::get_u64(const char* what) { u64 v = 0; bytes(&v, sizeof(v), what); return v; }
i64 FieldReader::get_i64(const char* what) { i64 v = 0; bytes(&v, sizeof(v), what); return v; }
double FieldReader::get_f64(const char* what) { double v = 0; bytes(&v, sizeof(v), what); return v; }

std::string FieldReader::get_str(const char* what) {
  const u32 n = get_u32(what);
  check_cap(*rules_, what, n, rules_->max_string);
  std::string s(static_cast<usize>(n), '\0');
  bytes(s.data(), s.size(), what);
  return s;
}

void FieldReader::expect_done(const char* what) const {
  if (left_ != 0) {
    fail(rules_->error, std::string(rules_->name) + " has trailing bytes after " + what);
  }
}

FrameScan scan_frame(std::string_view bytes, const CodecRules& rules) {
  FrameScan f;
  if (bytes.size() < sizeof(u32)) return f;
  std::memcpy(&f.len, bytes.data(), sizeof(f.len));
  if (f.len > rules.max_frame) {
    f.status = FrameScan::kOversized;
  } else if (bytes.size() >= f.size()) {
    const std::string_view payload = bytes.substr(sizeof(u32), f.len);
    u32 stored = 0;
    std::memcpy(&stored, payload.data() + f.len, sizeof(stored));
    f.status = crc32(payload.data(), f.len) == stored ? FrameScan::kComplete
                                                       : FrameScan::kCorrupt;
    if (f.status == FrameScan::kComplete) f.payload = payload;
  }
  return f;
}

}  // namespace nmdt
