// Minimal JSON parser + schema validators for the observability
// artifacts, shared by the trace-schema tests, the offline trace
// analytics (obs/trace_analysis.hpp), and the `example_trace_lint` CI
// checker.  Not a general-purpose JSON library: it parses into a small
// value tree only to answer "is this well-formed?", "does every event
// carry the required keys?", and to let the analytics walk a trace it
// wrote itself.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace nmdt::obs {

/// A deliberately small JSON value tree: enough structure to validate
/// schemas and re-load exported traces, nothing more.  \u escapes decode
/// to '?' — code point identity is irrelevant for validation and for
/// the ASCII label strings the tracer emits.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parse `text` into `out`; false (with *error set) on malformed input.
bool json_parse(std::string_view text, JsonValue& out, std::string* error);

/// Parse `text` as JSON; false (with *error set) on malformed input.
bool json_is_valid(std::string_view text, std::string* error);

struct TraceCheckReport {
  usize events = 0;         ///< entries in traceEvents
  usize complete_spans = 0; ///< ph == "X" events
  usize metadata = 0;       ///< ph == "M" events
  usize tracks = 0;         ///< distinct tids among complete spans
};

/// Validate a Chrome trace-event file: well-formed JSON, an object with
/// a "traceEvents" array, and every event an object carrying string
/// "name"/"ph" and numeric "ts"/"tid" (complete "X" events must also
/// carry numeric "dur"; metadata "M" events are exempt from ts).
bool validate_chrome_trace(std::string_view text, std::string* error,
                           TraceCheckReport* report = nullptr);

struct MetricsCheckReport {
  usize counters = 0;
  usize gauges = 0;
  usize histograms = 0;
};

/// Validate a MetricsRegistry JSON snapshot (as written by
/// `nmdt_cli --metrics`): an object with "counters"/"gauges"/
/// "histograms" objects; every name declared in the metric catalogue
/// (obs/metrics.hpp) and listed in its kind's section; counter and
/// gauge values numeric; every
/// histogram an object with numeric count/sum/min/max/mean and a
/// "buckets" array of {"le": number, "count": number} entries whose
/// counts sum to the histogram count (each observation lands in exactly
/// one bucket).
bool validate_metrics_json(std::string_view text, std::string* error,
                           MetricsCheckReport* report = nullptr);

}  // namespace nmdt::obs
