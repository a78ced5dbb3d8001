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
constexpr u32 kKindDense = 2;

template <class V>
constexpr u32 stream_version() {
  return std::is_same_v<V, float> ? kVersionF32 : kVersionTyped;
}

void write_u32(std::ostream& os, u32 v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_i64(std::ostream& os, i64 v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  write_i64(os, static_cast<i64>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// magic + version + payload + CRC32(payload) trailer.
void write_stream(std::ostream& os, u32 version, const std::string& payload) {
  os.write(kMagic, sizeof(kMagic));
  write_u32(os, version);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_u32(os, crc32(payload.data(), payload.size()));
}

/// Sequential reader over the checksum-verified payload.  Running out of
/// bytes here means the writer and reader disagree about the layout —
/// the payload itself is already known intact.
struct PayloadReader {
  const char* p = nullptr;
  usize left = 0;

  void read(void* dst, usize n, const char* what) {
    if (n > left) {
      throw FormatError(std::string("truncated NMDT payload reading ") + what);
    }
    if (n > 0) std::memcpy(dst, p, n);  // empty vectors have no storage
    p += n;
    left -= n;
  }
  u32 read_u32(const char* what) {
    u32 v = 0;
    read(&v, sizeof(v), what);
    return v;
  }
  i64 read_i64(const char* what) {
    i64 v = 0;
    read(&v, sizeof(v), what);
    return v;
  }
  template <typename T>
  std::vector<T> read_vector(const char* what, i64 sanity_max) {
    const i64 n = read_i64(what);
    if (n < 0 || n > sanity_max) {
      throw ParseError(std::string("implausible vector length for ") + what + ": " +
                       std::to_string(n));
    }
    std::vector<T> v(static_cast<usize>(n));
    read(v.data(), v.size() * sizeof(T), what);
    return v;
  }
};

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

void check_kind(u32 kind, u32 expected_kind) {
  if (kind != expected_kind) {
    throw ParseError("NMDT binary holds a different matrix kind (" +
                     std::to_string(kind) + ")");
  }
}

/// Version-2 streams imply 4-byte FP32 values; version-3 streams carry
/// the width after the kind word.  Either way the stored width must
/// match the requested value type — no silent reinterpretation.
template <class V>
void check_value_width(u32 version, PayloadReader& r) {
  const u32 stored = version == kVersionF32 ? static_cast<u32>(sizeof(float))
                                            : r.read_u32("value width");
  if (stored != sizeof(V)) {
    throw ParseError("NMDT binary holds " + std::to_string(stored) +
                     "-byte values; requested value type " +
                     precision_name(VTraits<V>::kPrecision) + " is " +
                     std::to_string(sizeof(V)) +
                     "-byte — load at the stored precision and retype");
  }
}

// 2^31 entries of 4 bytes = 8 GiB per vector: anything above is either
// corruption or far outside this library's scale.
constexpr i64 kSanityMax = i64{1} << 31;

}  // namespace

template <class V>
void save_csr(std::ostream& os, const CsrT<V>& m) {
  m.validate();
  std::ostringstream buf(std::ios::binary);
  write_u32(buf, kKindCsr);
  if (stream_version<V>() == kVersionTyped) write_u32(buf, sizeof(V));
  write_i64(buf, m.rows);
  write_i64(buf, m.cols);
  write_vector(buf, m.row_ptr);
  write_vector(buf, m.col_idx);
  write_vector(buf, m.val);
  write_stream(os, stream_version<V>(), buf.str());
  NMDT_REQUIRE(os.good(), "write failed while saving CSR");
}

template <class V>
CsrT<V> load_csr(std::istream& is) {
  u32 version = 0;
  const std::string payload = read_verified_payload(is, &version);
  PayloadReader r{payload.data(), payload.size()};
  check_kind(r.read_u32("kind"), kKindCsr);
  check_value_width<V>(version, r);
  CsrT<V> m;
  m.rows = static_cast<index_t>(r.read_i64("rows"));
  m.cols = static_cast<index_t>(r.read_i64("cols"));
  m.row_ptr = r.read_vector<index_t>("row_ptr", kSanityMax);
  m.col_idx = r.read_vector<index_t>("col_idx", kSanityMax);
  m.val = r.read_vector<V>("val", kSanityMax);
  m.validate();  // corruption that survives the checksum dies here
  return m;
}

template <class V>
void save_dense(std::ostream& os, const DenseMatrixT<V>& m) {
  std::ostringstream buf(std::ios::binary);
  write_u32(buf, kKindDense);
  if (stream_version<V>() == kVersionTyped) write_u32(buf, sizeof(V));
  write_i64(buf, m.rows());
  write_i64(buf, m.cols());
  buf.write(reinterpret_cast<const char*>(m.data().data()),
            static_cast<std::streamsize>(m.data().size() * sizeof(V)));
  write_stream(os, stream_version<V>(), buf.str());
  NMDT_REQUIRE(os.good(), "write failed while saving dense matrix");
}

template <class V>
DenseMatrixT<V> load_dense(std::istream& is) {
  u32 version = 0;
  const std::string payload = read_verified_payload(is, &version);
  PayloadReader r{payload.data(), payload.size()};
  check_kind(r.read_u32("kind"), kKindDense);
  check_value_width<V>(version, r);
  const i64 rows = r.read_i64("rows");
  const i64 cols = r.read_i64("cols");
  if (rows < 0 || cols < 0 || (rows > 0 && cols > kSanityMax / rows)) {
    throw ParseError("implausible dense dimensions");
  }
  DenseMatrixT<V> m(static_cast<index_t>(rows), static_cast<index_t>(cols));
  r.read(m.data().data(), m.data().size() * sizeof(V), "dense payload");
  return m;
}

namespace {

template <typename SaveFn, typename T>
void save_to_file(const std::string& path, const T& m, SaveFn&& fn) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) throw ParseError("cannot open for writing: " + path);
  fn(os, m);
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
    bytes.resize(bytes.size() - std::min(bytes.size(), cut));
    fault::note_injected();
  }
  return bytes;
}

}  // namespace

template <class V>
void save_csr_file(const std::string& path, const CsrT<V>& m) {
  save_to_file(path, m,
               [](std::ostream& os, const CsrT<V>& x) { save_csr(os, x); });
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
  template CsrT<V> load_csr_file(const std::string&);              \
  template void save_dense(std::ostream&, const DenseMatrixT<V>&); \
  template DenseMatrixT<V> load_dense(std::istream&)

NMDT_INSTANTIATE_SERIALIZE(float);
NMDT_INSTANTIATE_SERIALIZE(double);
NMDT_INSTANTIATE_SERIALIZE(bf16_t);

#undef NMDT_INSTANTIATE_SERIALIZE

}  // namespace nmdt
