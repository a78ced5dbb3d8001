#include "formats/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "fault/fault.hpp"
#include "util/codec.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace nmdt {

namespace {

constexpr char kMagic[4] = {'N', 'M', 'D', 'T'};
// Version 2 appends a CRC32 trailer over the kind + payload bytes and
// implies 4-byte (FP32) values; version 3 additionally records the
// value byte-width inside the payload.  Float matrices keep writing
// version 2 so default-precision artifacts are byte-identical across
// the precision refactor; version 1 (no checksum) is rejected with a
// re-save hint.
constexpr u32 kVersionF32 = 2;
constexpr u32 kVersionTyped = 3;
constexpr u32 kKindCsr = 1;
constexpr usize kHeaderBytes = sizeof(kMagic) + sizeof(u32);
// A .bin holds no strings and no frames: its trailer is a bare CRC over
// the payload.  A payload that ends early is a FormatError.
constexpr CodecRules kBinRules{"NMDT payload", 0, 0, codec_throw<FormatError>};
// 2^31 entries of 4 bytes = 8 GiB per vector: anything above is either
// corruption or far outside this library's scale.
constexpr i64 kSanityMax = i64{1} << 31;

template <class V>
constexpr u32 stream_version() {
  return std::is_same_v<V, float> ? kVersionF32 : kVersionTyped;
}

template <typename T>
void put_vector(FieldWriter& w, const std::vector<T>& v) {
  w.put_i64(static_cast<i64>(v.size()));
  w.bytes(v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> get_vector(FieldReader& r, const char* what) {
  const i64 n = r.get_i64(what);
  if (n < 0 || n > kSanityMax) {
    throw ParseError(std::string("implausible vector length for ") + what + ": " +
                     std::to_string(n));
  }
  std::vector<T> v(static_cast<usize>(n));
  r.bytes(v.data(), v.size() * sizeof(T), what);
  return v;
}

/// Read magic + version, slurp the rest, verify the CRC32 trailer, and
/// return the verified payload bytes (and the stream version via
/// *version_out).  Integrity failures (missing trailer, checksum
/// mismatch) are detected-but-unrecoverable: the on-disk source of
/// truth is damaged, so they surface as FormatError.
std::string read_verified_payload(std::istream& is, u32* version_out) {
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("not an NMDT binary matrix (bad magic)");
  }
  u32 version = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!is.good()) throw ParseError("truncated input reading version");
  if (version == 1) {
    throw ParseError(
        "NMDT binary version 1 predates the checksum trailer; re-save the "
        "matrix with this version of the tools");
  }
  if (version != kVersionF32 && version != kVersionTyped) {
    throw ParseError("unsupported NMDT binary version " + std::to_string(version));
  }
  *version_out = version;
  std::string rest((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  if (rest.size() < sizeof(u32)) {
    fault::note_detected();
    fault::note_unrecovered();
    throw FormatError("truncated NMDT binary: checksum trailer missing");
  }
  u32 stored = 0;
  std::memcpy(&stored, rest.data() + rest.size() - sizeof(u32), sizeof(u32));
  rest.resize(rest.size() - sizeof(u32));
  if (crc32(rest.data(), rest.size()) != stored) {
    fault::note_detected();
    fault::note_unrecovered();
    throw FormatError("NMDT binary checksum mismatch (file truncated or corrupted)");
  }
  return rest;
}

/// Version-2 streams imply 4-byte FP32 values; version-3 streams carry
/// the width after the kind word.  Either way the stored width must
/// match the requested value type — no silent reinterpretation.
template <class V>
void check_value_width(u32 version, FieldReader& r) {
  const u32 stored = version == kVersionF32 ? static_cast<u32>(sizeof(float))
                                            : r.get_u32("value width");
  if (stored != sizeof(V)) {
    throw ParseError("NMDT binary holds " + std::to_string(stored) +
                     "-byte values; requested value type " +
                     precision_name(VTraits<V>::kPrecision) + " is " +
                     std::to_string(sizeof(V)) +
                     "-byte — load at the stored precision and retype");
  }
}

/// Load the whole file image, giving the kSerializedStream injection
/// site its shot: a deterministic tail truncation (torn write / short
/// read).  The checksum trailer turns any such damage into a typed
/// FormatError instead of silently parsed garbage.
std::string read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw ParseError("cannot open NMDT binary: " + path);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  const u64 key = static_cast<u64>(bytes.size());
  if (!bytes.empty() &&
      fault::should_inject(fault::FaultSite::kSerializedStream, key)) {
    const u64 max_cut = std::max<u64>(1, static_cast<u64>(bytes.size()) / 4);
    const usize cut = static_cast<usize>(1 + fault::mix(key, 0xF11E) % max_cut);
    bytes.erase(bytes.size() - std::min(bytes.size(), cut));
    fault::note_injected();
  }
  return bytes;
}

}  // namespace

template <class V>
void save_csr(std::ostream& os, const CsrT<V>& m) {
  m.validate();
  FieldWriter w(kBinRules);
  w.bytes(kMagic, sizeof(kMagic));
  w.put_u32(stream_version<V>());
  w.put_u32(kKindCsr);
  if (stream_version<V>() == kVersionTyped) w.put_u32(sizeof(V));
  w.put_i64(m.rows);
  w.put_i64(m.cols);
  put_vector(w, m.row_ptr);
  put_vector(w, m.col_idx);
  put_vector(w, m.val);
  w.put_u32(crc32(w.out.data() + kHeaderBytes, w.out.size() - kHeaderBytes));
  os.write(w.out.data(), static_cast<std::streamsize>(w.out.size()));
  NMDT_REQUIRE(os.good(), "write failed while saving CSR");
}

template <class V>
CsrT<V> load_csr(std::istream& is) {
  u32 version = 0;
  const std::string payload = read_verified_payload(is, &version);
  FieldReader r(payload, kBinRules);
  if (const u32 kind = r.get_u32("kind"); kind != kKindCsr) {
    throw ParseError("NMDT binary holds a different matrix kind (" +
                     std::to_string(kind) + ")");
  }
  check_value_width<V>(version, r);
  CsrT<V> m;
  m.rows = static_cast<index_t>(r.get_i64("rows"));
  m.cols = static_cast<index_t>(r.get_i64("cols"));
  m.row_ptr = get_vector<index_t>(r, "row_ptr");
  m.col_idx = get_vector<index_t>(r, "col_idx");
  m.val = get_vector<V>(r, "val");
  m.validate();  // corruption that survives the checksum dies here
  return m;
}

template <class V>
void save_csr_file(const std::string& path, const CsrT<V>& m) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) throw ParseError("cannot open for writing: " + path);
  save_csr(os, m);
}

template <class V>
CsrT<V> load_csr_file(const std::string& path) {
  std::istringstream is(read_file_bytes(path), std::ios::binary);
  return load_csr<V>(is);
}

#define NMDT_INSTANTIATE_SERIALIZE(V)                              \
  template void save_csr(std::ostream&, const CsrT<V>&);           \
  template void save_csr_file(const std::string&, const CsrT<V>&); \
  template CsrT<V> load_csr(std::istream&);                        \
  template CsrT<V> load_csr_file(const std::string&)

NMDT_INSTANTIATE_SERIALIZE(float);
NMDT_INSTANTIATE_SERIALIZE(double);
NMDT_INSTANTIATE_SERIALIZE(bf16_t);

#undef NMDT_INSTANTIATE_SERIALIZE

}  // namespace nmdt
