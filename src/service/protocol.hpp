// JSON-lines request/response protocol of the SpMM service daemon
// (examples/nmdt_serve, src/service/server.hpp).
//
// One request per line on the way in, one response per line on the way
// out — the scheduler/worker split of a long-lived server without any
// framing beyond '\n' (and the bounded-line reader, util/line_reader,
// caps how much a newline-free attacker can make us buffer).
//
// Request line (unknown keys rejected so client typos fail loudly):
//   {"id": "r1", "matrix": "gen:uniform:256x256:0.02:1", "k": 16,
//    "kernel": "auto", "precision": "f32", "deadline_ms": 500,
//    "tenant": "team-a", "b_seed": 2, "return_c": true}
//
// `matrix` is a file path (.mtx / .bin) or a generator spec
// (`gen:<kind>:<rows>x<cols>:<density>:<seed>`); B is generated from
// `b_seed` exactly the way `nmdt_cli run` generates it, so a service
// response is bit-comparable to a batch run of the same request.
//
// Response line: status "ok" carries the result provenance (kernel,
// precision, rows, k) plus `c_crc32` — CRC32 over the result's stored
// bits — and, when `return_c` was set, `c_hex`, the little-endian hex
// dump of those bits (the bit-identity witness the chaos suite
// compares against batch mode).  Status "error" carries the typed
// error class and message; OverloadError responses add the
// `retry_after_ms` admission hint.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kernels/spmm.hpp"
#include "util/precision.hpp"
#include "util/types.hpp"

namespace nmdt::service {

/// Caps mirroring what any legitimate client sends; anything beyond is
/// an adversarial or broken request and parses to a typed ParseError.
inline constexpr index_t kMaxRequestK = 4096;
inline constexpr usize kMaxIdBytes = 256;
inline constexpr usize kMaxTenantBytes = 128;
inline constexpr usize kMaxMatrixSpecBytes = 4096;

struct Request {
  std::string id;                       ///< echoed verbatim in the response
  std::string tenant = "default";       ///< token-bucket quota key
  std::string matrix;                   ///< path or gen:<...> spec
  index_t k = 64;                       ///< dense B columns
  u64 b_seed = 2;                       ///< B RNG seed (2 = nmdt_cli run's)
  std::optional<KernelKind> kernel;     ///< nullopt = plan's heuristic pick
  Precision precision = Precision::kF32;
  double deadline_ms = 0.0;             ///< <= 0 = server default
  bool return_c = false;                ///< include c_hex in the response
};

/// Parse one request line; `line_no` names the request when `id` is
/// absent ("line-<n>").  Throws ParseError on malformed JSON, unknown
/// keys, wrong value types, or out-of-range fields.
Request parse_request(std::string_view line, u64 line_no);

struct Response {
  std::string id;
  std::string tenant;
  bool ok = false;
  // --- error half (ok == false) ---
  std::string error_type;   ///< "OverloadError", "TimeoutError", ...
  std::string message;
  i64 retry_after_ms = -1;  ///< >= 0 only on OverloadError shedding
  // --- result half (ok == true) ---
  std::string kernel;       ///< kernel actually run
  std::string precision;
  index_t rows = 0;         ///< C rows (matrix rows)
  index_t k = 0;            ///< C columns
  u32 c_crc32 = 0;          ///< CRC32 over the stored result bits
  std::string c_hex;        ///< little-endian hex of those bits (opt-in)
  bool used_fallback = false;  ///< degraded to the reference CSR kernel
  int coalesced = 1;        ///< batch size this request was served in
  // One definition on every path (solo, coalesced, isolated worker):
  /// Admission to the start of the kernel execution — queue wait plus,
  /// on a cold request, matrix load and plan build.
  double queue_ms = 0.0;
  /// The kernel execution alone (the whole batch's, when coalesced).
  double exec_ms = 0.0;
};

/// Serialize a response as one JSON line (no trailing newline).  The
/// output parses back through obs::json_parse — the daemon's own
/// schema check in tests.
std::string to_json_line(const Response& r);

/// Convenience constructors keeping error responses uniform.
Response error_response(const Request& req, const std::exception& e);
Response error_response(std::string id, std::string tenant, const std::exception& e);

/// Little-endian hex of a byte span (2 chars per byte) and its inverse.
/// decode throws ParseError on odd length or non-hex digits.
std::string hex_encode(const void* data, usize bytes);
std::vector<u8> hex_decode(std::string_view hex);

/// c_crc32 and c_hex digest these bytes (kernels/spmm.hpp), on both
/// the service and batch sides.
using nmdt::result_bits;

}  // namespace nmdt::service
