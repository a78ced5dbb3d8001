#include "service/protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/json_check.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt::service {

namespace {

[[noreturn]] void fail(const std::string& id, const std::string& msg) {
  throw ParseError("request " + id + ": " + msg);
}

const obs::JsonValue* find_typed(const obs::JsonValue& obj, const std::string& key,
                                 obs::JsonValue::Kind kind, const char* kind_name,
                                 const std::string& id) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return nullptr;
  if (v->kind != kind) fail(id, "field '" + key + "' must be a " + kind_name);
  return v;
}

std::optional<KernelKind> parse_kernel_field(const std::string& name,
                                             const std::string& id) {
  if (name.empty() || name == "auto") return std::nullopt;
  if (const auto kind = parse_kernel_kind(name)) return kind;
  fail(id, "unknown kernel '" + name + "' (expected 'auto' or a kernel name)");
}

i64 get_integer(const obs::JsonValue& v, const std::string& key, const std::string& id) {
  if (v.number != std::floor(v.number) || std::abs(v.number) > 1e15) {
    fail(id, "field '" + key + "' must be an integer");
  }
  return static_cast<i64>(v.number);
}

}  // namespace

Request parse_request(std::string_view line, u64 line_no) {
  const std::string fallback_id = "line-" + std::to_string(line_no);
  obs::JsonValue root;
  std::string err;
  if (!obs::json_parse(line, root, &err)) {
    fail(fallback_id, "malformed JSON (" + err + ")");
  }
  if (root.kind != obs::JsonValue::Kind::kObject) {
    fail(fallback_id, "request must be a JSON object");
  }

  Request req;
  req.id = fallback_id;
  if (const auto* v = find_typed(root, "id", obs::JsonValue::Kind::kString, "string",
                                 fallback_id)) {
    if (v->str.empty() || v->str.size() > kMaxIdBytes) {
      fail(fallback_id, "field 'id' must be 1.." + std::to_string(kMaxIdBytes) +
                            " bytes");
    }
    req.id = v->str;
  }
  // Everything after this point names the request by its real id.
  static const char* kKnown[] = {"id",        "tenant",    "matrix", "k",
                                 "b_seed",    "kernel",    "precision",
                                 "deadline_ms", "return_c"};
  for (const auto& [key, _] : root.object) {
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) fail(req.id, "unknown field '" + key + "'");
  }
  if (const auto* v = find_typed(root, "tenant", obs::JsonValue::Kind::kString,
                                 "string", req.id)) {
    if (v->str.empty() || v->str.size() > kMaxTenantBytes) {
      fail(req.id, "field 'tenant' must be 1.." + std::to_string(kMaxTenantBytes) +
                       " bytes");
    }
    req.tenant = v->str;
  }
  const auto* matrix = find_typed(root, "matrix", obs::JsonValue::Kind::kString,
                                  "string", req.id);
  if (matrix == nullptr) fail(req.id, "missing required field 'matrix'");
  if (matrix->str.empty() || matrix->str.size() > kMaxMatrixSpecBytes) {
    fail(req.id, "field 'matrix' must be 1.." + std::to_string(kMaxMatrixSpecBytes) +
                     " bytes");
  }
  req.matrix = matrix->str;
  if (const auto* v =
          find_typed(root, "k", obs::JsonValue::Kind::kNumber, "number", req.id)) {
    const i64 k = get_integer(*v, "k", req.id);
    if (k < 1 || k > kMaxRequestK) {
      fail(req.id, "field 'k' must be in [1, " + std::to_string(kMaxRequestK) + "]");
    }
    req.k = static_cast<index_t>(k);
  }
  if (const auto* v = find_typed(root, "b_seed", obs::JsonValue::Kind::kNumber,
                                 "number", req.id)) {
    const i64 seed = get_integer(*v, "b_seed", req.id);
    if (seed < 0) fail(req.id, "field 'b_seed' must be >= 0");
    req.b_seed = static_cast<u64>(seed);
  }
  if (const auto* v = find_typed(root, "kernel", obs::JsonValue::Kind::kString,
                                 "string", req.id)) {
    req.kernel = parse_kernel_field(v->str, req.id);
  }
  if (const auto* v = find_typed(root, "precision", obs::JsonValue::Kind::kString,
                                 "string", req.id)) {
    try {
      req.precision = parse_precision(v->str);
    } catch (const Error& e) {
      fail(req.id, e.what());
    }
  }
  if (const auto* v = find_typed(root, "deadline_ms", obs::JsonValue::Kind::kNumber,
                                 "number", req.id)) {
    if (!(v->number >= 0.0) || v->number > 1e12) {
      fail(req.id, "field 'deadline_ms' must be a finite value >= 0");
    }
    req.deadline_ms = v->number;
  }
  if (const auto* v = find_typed(root, "return_c", obs::JsonValue::Kind::kBool,
                                 "boolean", req.id)) {
    req.return_c = v->boolean;
  }
  return req;
}

std::string to_json_line(const Response& r) {
  using obs::json_escape;
  std::ostringstream os;
  os << "{\"id\":\"" << json_escape(r.id) << "\",\"tenant\":\""
     << json_escape(r.tenant) << "\",\"status\":\"" << (r.ok ? "ok" : "error")
     << "\"";
  if (r.ok) {
    os << ",\"kernel\":\"" << json_escape(r.kernel) << "\",\"precision\":\""
       << json_escape(r.precision) << "\",\"rows\":" << r.rows << ",\"k\":" << r.k
       << ",\"c_crc32\":" << r.c_crc32
       << ",\"used_fallback\":" << (r.used_fallback ? "true" : "false")
       << ",\"coalesced\":" << r.coalesced << ",\"queue_ms\":" << r.queue_ms
       << ",\"exec_ms\":" << r.exec_ms;
    if (!r.c_hex.empty()) os << ",\"c_hex\":\"" << r.c_hex << "\"";
  } else {
    os << ",\"error_type\":\"" << json_escape(r.error_type) << "\",\"message\":\""
       << json_escape(r.message) << "\"";
    if (r.retry_after_ms >= 0) os << ",\"retry_after_ms\":" << r.retry_after_ms;
  }
  os << "}";
  return os.str();
}

Response error_response(std::string id, std::string tenant, const std::exception& e) {
  Response resp;
  resp.id = std::move(id);
  resp.tenant = std::move(tenant);
  resp.ok = false;
  const std::string described = describe_exception(e);
  const auto sep = described.find(": ");
  resp.error_type = described.substr(0, sep);
  resp.message = sep == std::string::npos ? described : described.substr(sep + 2);
  if (const auto* overload = dynamic_cast<const OverloadError*>(&e)) {
    resp.retry_after_ms = overload->retry_after_ms();
  }
  return resp;
}

Response error_response(const Request& req, const std::exception& e) {
  return error_response(req.id, req.tenant, e);
}

std::string hex_encode(const void* data, usize bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const auto* p = static_cast<const u8*>(data);
  std::string out;
  out.reserve(bytes * 2);
  for (usize i = 0; i < bytes; ++i) {
    out.push_back(kDigits[p[i] >> 4]);
    out.push_back(kDigits[p[i] & 0xf]);
  }
  return out;
}

std::vector<u8> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) throw ParseError("hex string has odd length");
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw ParseError(std::string("invalid hex digit '") + c + "'");
  };
  std::vector<u8> out(hex.size() / 2);
  for (usize i = 0; i < out.size(); ++i) {
    out[i] = static_cast<u8>((nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1]));
  }
  return out;
}

}  // namespace nmdt::service
