#include "obs/json_check.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace nmdt::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      if (error) *error = error_ + " (at byte " + std::to_string(pos_) + ")";
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error) *error = "trailing data after JSON value (at byte " + std::to_string(pos_) + ")";
      return false;
    }
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue& out) {
    auto match = [&](std::string_view kw) {
      if (text_.substr(pos_, kw.size()) != kw) return false;
      pos_ += kw.size();
      return true;
    };
    if (match("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return fail("invalid keyword");
  }

  bool parse_number(JsonValue& out) {
    const usize start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("malformed number '" + num + "'");
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + static_cast<usize>(i)]))) {
              return fail("malformed \\u escape");
            }
          }
          pos_ += 4;
          out += '?';  // code point identity is irrelevant for validation
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      skip_ws();
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object[std::move(key)] = std::move(v);
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  usize pos_ = 0;
  std::string error_;
};

bool has_string(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString;
}

bool has_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber;
}

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  return Parser(text).parse(out, error);
}

bool json_is_valid(std::string_view text, std::string* error) {
  JsonValue root;
  return Parser(text).parse(root, error);
}

bool validate_chrome_trace(std::string_view text, std::string* error,
                           TraceCheckReport* report) {
  JsonValue root;
  if (!Parser(text).parse(root, error)) return false;
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (root.kind != JsonValue::Kind::kObject) return fail("trace root is not an object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return fail("missing traceEvents array");
  }
  TraceCheckReport rep;
  std::set<double> tids;
  for (usize i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string at = "event " + std::to_string(i);
    if (ev.kind != JsonValue::Kind::kObject) return fail(at + " is not an object");
    if (!has_string(ev, "name")) return fail(at + " lacks a string 'name'");
    if (!has_string(ev, "ph")) return fail(at + " lacks a string 'ph'");
    if (!has_number(ev, "tid")) return fail(at + " lacks a numeric 'tid'");
    const std::string& ph = ev.find("ph")->str;
    ++rep.events;
    if (ph == "M") {
      ++rep.metadata;
      continue;
    }
    if (!has_number(ev, "ts")) return fail(at + " lacks a numeric 'ts'");
    if (ph == "X") {
      if (!has_number(ev, "dur")) return fail(at + " (ph X) lacks a numeric 'dur'");
      ++rep.complete_spans;
      tids.insert(ev.find("tid")->number);
    }
  }
  rep.tracks = tids.size();
  if (report) *report = rep;
  return true;
}

bool validate_metrics_json(std::string_view text, std::string* error,
                           MetricsCheckReport* report) {
  JsonValue root;
  if (!Parser(text).parse(root, error)) return false;
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (root.kind != JsonValue::Kind::kObject) return fail("metrics root is not an object");
  MetricsCheckReport rep;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* sec = root.find(section);
    if (sec == nullptr || sec->kind != JsonValue::Kind::kObject) {
      return fail(std::string("missing '") + section + "' object");
    }
  }
  // The catalogue is the only source of names: an undeclared name, or
  // one filed under another kind's section, is a schema error.
  auto undeclared = [](const std::string& name, MetricKind kind) {
    const MetricDecl* decl = find_metric(name);
    return decl == nullptr || decl->kind != kind;
  };
  for (const auto& [name, v] : root.find("counters")->object) {
    if (undeclared(name, MetricKind::kCounter)) return fail("undeclared counter '" + name + "'");
    if (v.kind != JsonValue::Kind::kNumber) {
      return fail("counter '" + name + "' is not numeric");
    }
    ++rep.counters;
  }
  for (const auto& [name, v] : root.find("gauges")->object) {
    if (undeclared(name, MetricKind::kGauge)) return fail("undeclared gauge '" + name + "'");
    if (v.kind != JsonValue::Kind::kNumber) {
      return fail("gauge '" + name + "' is not numeric");
    }
    ++rep.gauges;
  }
  for (const auto& [name, h] : root.find("histograms")->object) {
    const std::string at = "histogram '" + name + "'";
    if (undeclared(name, MetricKind::kHistogram)) return fail("undeclared " + at);
    if (h.kind != JsonValue::Kind::kObject) return fail(at + " is not an object");
    for (const char* key : {"count", "sum", "min", "max", "mean"}) {
      if (!has_number(h, key)) return fail(at + " lacks numeric '" + key + "'");
    }
    const JsonValue* buckets = h.find("buckets");
    if (buckets == nullptr || buckets->kind != JsonValue::Kind::kArray) {
      return fail(at + " lacks a 'buckets' array");
    }
    double bucket_total = 0.0;
    double prev_le = -std::numeric_limits<double>::infinity();
    for (usize i = 0; i < buckets->array.size(); ++i) {
      const JsonValue& b = buckets->array[i];
      const std::string bat = at + " bucket " + std::to_string(i);
      if (b.kind != JsonValue::Kind::kObject) return fail(bat + " is not an object");
      if (!has_number(b, "le") || !has_number(b, "count")) {
        return fail(bat + " lacks numeric 'le'/'count'");
      }
      const double le = b.find("le")->number;
      if (le <= prev_le) return fail(bat + " breaks ascending 'le' order");
      prev_le = le;
      bucket_total += b.find("count")->number;
    }
    // Every observation lands in exactly one bucket, so the bucket
    // counts must reconstruct the histogram count.
    if (bucket_total != h.find("count")->number) {
      return fail(at + " bucket counts do not sum to 'count'");
    }
    ++rep.histograms;
  }
  if (report) *report = rep;
  return true;
}

}  // namespace nmdt::obs
