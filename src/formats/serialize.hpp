// Binary serialization of CSR matrices (.bin).
//
// Matrix Market is the interchange format (human-readable, slow); this
// is the fast path for caching generated suites or shipping matrices
// between tools: a small header (magic, version) followed by the kind,
// dims, and raw little-endian vectors, closed by a CRC32 trailer over
// everything after the version word.  Fields are written and read with
// the one binary codec (util/codec.hpp); the .bin layout keeps its own
// magic | version | payload | crc trailer rather than the codec's CRC
// frame.  Loads verify the checksum before
// parsing a single payload byte and validate the reconstructed
// structure afterwards: truncation or bit corruption surfaces as
// FormatError, unparsable headers (bad magic, the pre-checksum
// version 1, wrong kind) as ParseError — never silently parsed garbage.
//
// Precision: format version 2 is the historical FP32 layout and is
// still what float matrices write, byte for byte.  Non-default value
// types (f64, bf16) write format version 3, which carries an explicit
// value byte-width word inside the checksummed payload; loading a
// stream whose stored width disagrees with the requested value type is
// a ParseError, never a silent reinterpretation of the value bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "formats/csr.hpp"

namespace nmdt {

template <class V>
void save_csr(std::ostream& os, const CsrT<V>& m);
template <class V>
void save_csr_file(const std::string& path, const CsrT<V>& m);
template <class V = value_t>
CsrT<V> load_csr(std::istream& is);
template <class V = value_t>
CsrT<V> load_csr_file(const std::string& path);

}  // namespace nmdt
