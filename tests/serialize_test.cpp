// Binary serialization tests: round trips, cross-kind rejection, and
// corruption/truncation failure injection.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "formats/retype.hpp"
#include "formats/serialize.hpp"
#include "matgen/generators.hpp"
#include "service/protocol.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(Serialize, CsrRoundTrip) {
  const Csr m = gen_uniform(200, 150, 0.03, 1);
  std::stringstream ss;
  save_csr(ss, m);
  const Csr back = load_csr(ss);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.cols, m.cols);
  EXPECT_EQ(back.row_ptr, m.row_ptr);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.val, m.val);
}

TEST(Serialize, EmptyCsrRoundTrip) {
  Csr m;
  m.rows = 5;
  m.cols = 7;
  m.row_ptr.assign(6, 0);
  std::stringstream ss;
  save_csr(ss, m);
  const Csr back = load_csr(ss);
  EXPECT_EQ(back.nnz(), 0);
  EXPECT_EQ(back.cols, 7);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/nmdt_serialize_test.bin";
  const Csr m = gen_banded(100, 4, 0.5, 3);
  save_csr_file(path, m);
  const Csr back = load_csr_file(path);
  EXPECT_EQ(back.val, m.val);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss;
  ss << "JUNKJUNKJUNKJUNKJUNK";
  EXPECT_THROW(load_csr(ss), ParseError);
}

TEST(Serialize, RejectsTruncation) {
  const Csr m = gen_uniform(64, 64, 0.1, 5);
  std::stringstream ss;
  save_csr(ss, m);
  const std::string full = ss.str();
  for (usize cut : {usize{3}, usize{10}, full.size() / 2, full.size() - 2}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(load_csr(truncated), Error) << "cut at " << cut;
  }
}

TEST(Serialize, RejectsCorruptedStructure) {
  const Csr m = gen_uniform(64, 64, 0.1, 6);
  std::stringstream ss;
  save_csr(ss, m);
  std::string bytes = ss.str();
  // Flip a byte inside row_ptr payload (past the 28-byte header+dims).
  bytes[40] = static_cast<char>(bytes[40] ^ 0x7f);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_csr(corrupted), Error);
}

TEST(Serialize, RejectsImplausibleVectorLength) {
  // Hand-craft a version-2 payload (valid checksum) with an absurd
  // row_ptr length: the rejection must come from the sanity bound, not
  // from the CRC.
  std::string payload;
  const auto append = [&payload](const void* p, usize n) {
    payload.append(static_cast<const char*>(p), n);
  };
  const u32 kind = 1;
  const i64 rows = 4, cols = 4, absurd = i64{1} << 40;
  append(&kind, 4);
  append(&rows, 8);
  append(&cols, 8);
  append(&absurd, 8);
  std::stringstream ss;
  ss.write("NMDT", 4);
  const u32 version = 2;
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const u32 crc = crc32(payload.data(), payload.size());
  ss.write(reinterpret_cast<const char*>(&crc), 4);
  EXPECT_THROW(load_csr(ss), ParseError);
}

TEST(Serialize, RejectsPreChecksumVersionWithClearError) {
  std::stringstream ss;
  ss.write("NMDT", 4);
  const u32 version = 1, kind = 1;
  ss.write(reinterpret_cast<const char*>(&version), 4);
  ss.write(reinterpret_cast<const char*>(&kind), 4);
  try {
    load_csr(ss);
    FAIL() << "version-1 stream must be rejected";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("re-save"), std::string::npos);
  }
}

TEST(Serialize, ChecksumCatchesEveryPayloadByteFlip) {
  Csr m;
  m.rows = 2;
  m.cols = 2;
  m.row_ptr = {0, 1, 2};
  m.col_idx = {0, 1};
  m.val = {1.0f, 2.0f};
  std::stringstream ss;
  save_csr(ss, m);
  const std::string golden = ss.str();
  // Flip one bit of every byte past the version word (payload + CRC
  // trailer): each single-bit corruption must be rejected.
  for (usize i = 8; i < golden.size(); ++i) {
    std::string bytes = golden;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    std::stringstream corrupted(bytes);
    EXPECT_THROW(load_csr(corrupted), FormatError) << "flip at byte " << i;
  }
}

/// A small fixed CSR whose values are exact at f32, f64 and bf16.
template <class V>
CsrT<V> golden_csr() {
  Csr m;
  m.rows = 2;
  m.cols = 3;
  m.row_ptr = {0, 2, 3};
  m.col_idx = {0, 2, 1};
  m.val = {1.5f, -2.0f, 0.25f};
  return retype<V>(m);
}

/// The writer reproduces `hex` exactly, and the reader decodes `hex` to
/// golden_csr<V>() — both directions of the .bin codec, pinned.
template <class V>
void expect_golden_bin(std::string_view hex) {
  const CsrT<V> m = golden_csr<V>();
  std::stringstream out;
  save_csr(out, m);
  const std::string bytes = out.str();
  EXPECT_EQ(service::hex_encode(bytes.data(), bytes.size()), hex);

  const std::vector<u8> pinned = service::hex_decode(hex);
  std::stringstream in(std::string(pinned.begin(), pinned.end()));
  const CsrT<V> back = load_csr<V>(in);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.cols, m.cols);
  EXPECT_EQ(back.row_ptr, m.row_ptr);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.val, m.val);
}

// Format version 2 (f32) and version 3 (f64, bf16: value width word).
constexpr std::string_view kGoldenF32Hex =
    "4e4d445402000000010000000200000000000000030000000000000003000000"
    "0000000000000000020000000300000003000000000000000000000002000000"
    "0100000003000000000000000000c03f000000c00000803ea04633e6";
constexpr std::string_view kGoldenF64Hex =
    "4e4d445403000000010000000800000002000000000000000300000000000000"
    "0300000000000000000000000200000003000000030000000000000000000000"
    "02000000010000000300000000000000000000000000f83f00000000000000c0"
    "000000000000d03f3d41bd4c";
constexpr std::string_view kGoldenBf16Hex =
    "4e4d445403000000010000000200000002000000000000000300000000000000"
    "0300000000000000000000000200000003000000030000000000000000000000"
    "02000000010000000300000000000000c03f00c0803ebcaa6244";

TEST(Serialize, GoldenF32BytesArePinned) { expect_golden_bin<float>(kGoldenF32Hex); }
TEST(Serialize, GoldenF64BytesArePinned) { expect_golden_bin<double>(kGoldenF64Hex); }
TEST(Serialize, GoldenBf16BytesArePinned) { expect_golden_bin<bf16_t>(kGoldenBf16Hex); }

TEST(Serialize, RejectsWrongKind) {
  // The v2 golden bytes with the kind word set to 2 (a dense matrix)
  // and the CRC recomputed, so the kind check — not the checksum —
  // must reject the stream.
  const std::vector<u8> pinned = service::hex_decode(kGoldenF32Hex);
  std::string bytes(pinned.begin(), pinned.end());
  const u32 kind = 2;
  std::memcpy(bytes.data() + 8, &kind, sizeof(kind));
  const u32 crc = crc32(bytes.data() + 8, bytes.size() - 12);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  std::stringstream ss(bytes);
  EXPECT_THROW(load_csr(ss), ParseError);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(load_csr_file("/nonexistent/m.bin"), ParseError);
}

}  // namespace
}  // namespace nmdt
