// Unit tests for the observability layer (src/obs/): metrics
// instruments and their JSON snapshot, ScopedTimer, the tracer's
// session/track/span machinery, and the JSON / Chrome-trace validator
// that backs `example_trace_lint`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt::obs {
namespace {

// ---------------------------------------------------------------------
// Metrics instruments.

TEST(Metrics, CounterAddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, GaugeSetAndReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramTracksCountSumMinMax) {
  Histogram h;
  h.observe(2.0);
  h.observe(0.5);
  h.observe(8.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 10.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(Metrics, HistogramBucketsArePowerOfTwoBounds) {
  Histogram h;
  h.observe(1.0);   // <= 2^0  -> bucket kZero
  h.observe(3.0);   // <= 2^2  -> bucket kZero + 2
  h.observe(0.0);   // non-positive -> bucket 0
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[Histogram::kZero], 1u);
  EXPECT_EQ(s.buckets[Histogram::kZero + 2], 1u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(Histogram::kZero), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(Histogram::kZero + 3), 8.0);
}

TEST(Metrics, HistogramBoundaryObservationsLandInExactlyOneBucket) {
  // Boundary cases of the log2 bucket function: 0 and negatives pin to
  // bucket 0; exact powers of two land ON their bound (observe uses
  // ceil(log2)); everything past 2^(kBuckets-1-kZero) clamps into the
  // last bucket instead of indexing out of range.
  Histogram h;
  h.observe(0.0);                                      // -> bucket 0
  h.observe(-3.5);                                     // -> bucket 0
  h.observe(1.0);                                      // == 2^0 -> kZero
  h.observe(2.0);                                      // == 2^1 -> kZero + 1
  h.observe(2.0 + 1e-9);                               // just over -> kZero + 2
  h.observe(Histogram::bucket_bound(Histogram::kBuckets - 1));  // last bound
  h.observe(1e18);                                     // beyond every bound
  h.observe(static_cast<double>(UINT64_MAX));          // clamps, not UB
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[Histogram::kZero], 1u);
  EXPECT_EQ(s.buckets[Histogram::kZero + 1], 1u);
  EXPECT_EQ(s.buckets[Histogram::kZero + 2], 1u);
  EXPECT_EQ(s.buckets[Histogram::kBuckets - 1], 3u);
  // Every observation landed in exactly one bucket (the invariant the
  // --metrics validator re-checks on every snapshot).
  u64 total = 0;
  for (u64 b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
  EXPECT_EQ(s.count, 8u);
}

TEST(Metrics, HistogramSubUnitObservationsUseNegativeExponentBuckets) {
  Histogram h;
  h.observe(0.5);      // == 2^-1 -> kZero - 1
  h.observe(1.0e-9);   // below 2^-20: clamps to bucket 0
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[Histogram::kZero - 1], 1u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_DOUBLE_EQ(s.min, 1.0e-9);
}

TEST(Metrics, HistogramEmptySnapshotHasZeroMinMax) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& a = reg.counter("kernel.runs");
  Counter& b = reg.counter("kernel.runs");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a, &metrics().kernel_runs);  // by-name and typed handle agree
  a.add(7);
  reg.reset();
  EXPECT_EQ(b.value(), 0);  // reset zeroes in place, reference survives
}

TEST(Metrics, RegistrySnapshotIsValidJson) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("kernel.runs").add(3);
  reg.gauge("service.queue_depth").set(1.5);
  reg.histogram("kernel.host_ms").observe(4.0);
  std::ostringstream os;
  reg.write_json(os);
  std::string error;
  EXPECT_TRUE(json_is_valid(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("service.queue_depth"), std::string::npos);
}

TEST(Metrics, CatalogueIsSortedUniqueAndFollowsTheUnitRule) {
  // Names sort strictly (so unique), use [a-z0-9_.], and carry their
  // unit as a suffix: `_ms` milliseconds, `bytes` bytes, anything else
  // a count.  Every histogram is a `_ms` timing, and no other unit
  // suffix may appear where the rule would read it as a count.
  const auto in_charset = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
  };
  std::string_view prev;
  for (const MetricDecl& d : kMetricCatalogue) {
    SCOPED_TRACE(std::string(d.name));
    EXPECT_FALSE(d.name.empty());
    EXPECT_TRUE(std::all_of(d.name.begin(), d.name.end(), in_charset));
    for (std::string_view unit : {"_us", "_ns", "_s", "_sec", "_mb", "_kb", "_gb", "_pct"}) {
      EXPECT_FALSE(d.name.ends_with(unit)) << unit;
    }
    EXPECT_LT(prev, d.name);
    prev = d.name;
    if (d.kind == MetricKind::kHistogram) {
      EXPECT_TRUE(d.name.ends_with("_ms"));
    }
    EXPECT_EQ(find_metric(d.name), &d);
  }
  EXPECT_EQ(find_metric("kernel.run"), nullptr);
}

TEST(Metrics, ByNameLookupRejectsUndeclaredNamesAndWrongKinds) {
  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_THROW(reg.counter("obs_test.undeclared"), ConfigError);
  EXPECT_THROW(reg.gauge("obs_test.undeclared"), ConfigError);
  EXPECT_THROW(reg.histogram("obs_test.undeclared"), ConfigError);
  EXPECT_THROW(reg.counter("kernel.host_ms"), ConfigError);  // a histogram
  EXPECT_THROW(reg.histogram("kernel.runs"), ConfigError);   // a counter
  EXPECT_EQ(&reg.gauge("service.queue_depth"), &metrics().service_queue_depth);
}

TEST(Metrics, ScopedTimerObservesOnceIntoHistogram) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Histogram& h = reg.histogram("kernel.host_ms");
  h.reset();
  {
    ScopedTimer t(metrics().kernel_host_ms);
    const double ms = t.stop();
    EXPECT_GE(ms, 0.0);
  }  // dtor after stop() must not double-observe
  EXPECT_EQ(h.snapshot().count, 1u);
  { ScopedTimer t(h); }
  EXPECT_EQ(h.snapshot().count, 2u);
}

// ---------------------------------------------------------------------
// Tracer sessions, tracks, spans.

TEST(Trace, NoSessionMeansDisabledSpans) {
  ASSERT_EQ(TraceSession::active(), nullptr);
  TraceSpan span("orphan");
  EXPECT_FALSE(span.enabled());
  span.arg("ignored", i64{1});  // must be a no-op, not a crash
}

TEST(Trace, SessionCollectsSpansInOrder) {
  TraceSession session;
  session.install();
  EXPECT_EQ(TraceSession::active(), &session);
  {
    TraceSpan outer("outer");
    outer.arg("n", i64{3});
    { NMDT_TRACE_SCOPE("inner"); }
  }
  session.uninstall();
  EXPECT_EQ(TraceSession::active(), nullptr);
  const auto events = session.events();
  ASSERT_EQ(events.size(), 2u);
  // Same track; inner closed first but "outer" opened first (seq order).
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].track, events[1].track);
  EXPECT_NE(events[0].args_json.find("\"n\":3"), std::string::npos);
}

TEST(Trace, SpansAfterUninstallAreDropped) {
  TraceSession session;
  session.install();
  auto span = std::make_unique<TraceSpan>("late");
  session.uninstall();
  span.reset();  // closes after uninstall: must be dropped
  EXPECT_TRUE(session.events().empty());
}

TEST(Trace, TrackDeriveIsAPureFunction) {
  const u64 a = TraceTrack::derive(0, "shard", 3);
  const u64 b = TraceTrack::derive(0, "shard", 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, TraceTrack::derive(0, "shard", 4));
  EXPECT_NE(a, TraceTrack::derive(1, "shard", 3));
  EXPECT_NE(a, TraceTrack::derive(0, "row", 3));
}

TEST(Trace, TrackGuardNestsAndRestores) {
  EXPECT_EQ(TraceTrack::current(), 0u);
  {
    TraceTrack outer("row", 1);
    const u64 outer_id = TraceTrack::current();
    EXPECT_EQ(outer_id, TraceTrack::derive(0, "row", 1));
    {
      TraceTrack inner("shard", 2);
      EXPECT_EQ(TraceTrack::current(), TraceTrack::derive(outer_id, "shard", 2));
    }
    EXPECT_EQ(TraceTrack::current(), outer_id);
  }
  EXPECT_EQ(TraceTrack::current(), 0u);
}

TEST(Trace, ExplicitParentTrackIgnoresThreadState) {
  const u64 parent = TraceTrack::derive(0, "suite_row", 5);
  u64 seen = 0;
  std::thread worker([&] {
    TraceTrack track(parent, "shard", 1);
    seen = TraceTrack::current();
  });
  worker.join();
  EXPECT_EQ(seen, TraceTrack::derive(parent, "shard", 1));
}

TEST(Trace, CrossThreadSpansMergeByTrack) {
  TraceSession session;
  session.install();
  {
    TraceSpan main_span("main");
    std::thread worker([&] {
      TraceTrack track(0, "worker", 1);
      NMDT_TRACE_SCOPE("work");
    });
    worker.join();
  }
  session.uninstall();
  const auto events = session.events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by (track, seq): track 0 ("main") first, the derived worker
  // lane after — regardless of which OS thread buffered what.
  EXPECT_EQ(events[0].name, "main");
  EXPECT_EQ(events[0].track, 0u);
  EXPECT_EQ(events[1].name, "work");
  EXPECT_EQ(events[1].track, TraceTrack::derive(0, "worker", 1));
}

TEST(Trace, ChromeExportPassesTheValidator) {
  TraceSession session;
  session.install();
  {
    TraceSpan span("export.me");
    span.arg("bytes", i64{128}).arg("label", "a \"quoted\" name").arg("frac", 0.5);
  }
  session.uninstall();
  std::ostringstream os;
  session.write_chrome_json(os);
  std::string error;
  TraceCheckReport report;
  EXPECT_TRUE(validate_chrome_trace(os.str(), &error, &report)) << error;
  EXPECT_EQ(report.complete_spans, 1u);
  EXPECT_GE(report.metadata, 1u);
  EXPECT_EQ(report.tracks, 1u);
}

TEST(Trace, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

// ---------------------------------------------------------------------
// JSON / trace-schema validator.

TEST(JsonCheck, AcceptsWellFormedDocuments) {
  std::string error;
  EXPECT_TRUE(json_is_valid("{}", &error)) << error;
  EXPECT_TRUE(json_is_valid("[1, -2.5e3, \"x\", true, false, null]", &error)) << error;
  EXPECT_TRUE(json_is_valid("{\"a\": {\"b\": [1, {\"c\": \"\\u00e9\"}]}}", &error))
      << error;
}

TEST(JsonCheck, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(json_is_valid("", &error));
  EXPECT_FALSE(json_is_valid("{", &error));
  EXPECT_FALSE(json_is_valid("{\"a\": 1,}", &error));
  EXPECT_FALSE(json_is_valid("[1 2]", &error));
  EXPECT_FALSE(json_is_valid("{\"a\": 1} trailing", &error));
  EXPECT_FALSE(json_is_valid("{'a': 1}", &error));
}

TEST(JsonCheck, RejectsNonTraceSchemas) {
  std::string error;
  EXPECT_FALSE(validate_chrome_trace("[]", &error));              // not an object
  EXPECT_FALSE(validate_chrome_trace("{}", &error));              // no traceEvents
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\": 3}", &error));
  // A complete event without "dur" must fail.
  EXPECT_FALSE(validate_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 0, \"tid\": 1}]}",
      &error));
  // A well-formed complete event must pass.
  TraceCheckReport report;
  EXPECT_TRUE(validate_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 2, \"pid\": 1, \"tid\": 1}]}",
      &error, &report))
      << error;
  EXPECT_EQ(report.complete_spans, 1u);
}

// ---------------------------------------------------------------------
// Metrics-snapshot validator (backs `trace_lint --metrics`).

TEST(MetricsCheck, RegistrySnapshotRoundTripsThroughValidator) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  reg.counter("kernel.runs").add(7);
  reg.gauge("service.queue_depth").set(-2.5);
  Histogram& h = reg.histogram("kernel.host_ms");
  h.observe(0.0);
  h.observe(1.0);
  h.observe(1e18);
  std::ostringstream os;
  reg.write_json(os);

  std::string error;
  MetricsCheckReport report;
  ASSERT_TRUE(validate_metrics_json(os.str(), &error, &report)) << error;
  EXPECT_GE(report.counters, 1u);
  EXPECT_GE(report.gauges, 1u);
  EXPECT_GE(report.histograms, 1u);
}

TEST(MetricsCheck, RejectsMissingSectionsAndBrokenInvariants) {
  std::string error;
  EXPECT_FALSE(validate_metrics_json("[]", &error));  // not an object
  EXPECT_FALSE(validate_metrics_json("{\"counters\": {}}", &error));  // no gauges
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {\"kernel.runs\": \"NaN\"}, \"gauges\": {}, \"histograms\": {}}",
      &error));  // non-numeric counter
  // Histogram whose bucket counts do not sum to `count`.
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"kernel.host_ms\": "
      "{\"count\": 3, \"sum\": 1.0, \"min\": 0.0, \"max\": 1.0, \"mean\": 0.33, "
      "\"buckets\": [{\"le\": 1.0, \"count\": 1}]}}}",
      &error));
  EXPECT_NE(error.find("bucket"), std::string::npos) << error;
  // Buckets with non-ascending bounds.
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"kernel.host_ms\": "
      "{\"count\": 2, \"sum\": 1.0, \"min\": 0.0, \"max\": 1.0, \"mean\": 0.5, "
      "\"buckets\": [{\"le\": 4.0, \"count\": 1}, {\"le\": 2.0, \"count\": 1}]}}}",
      &error));
  // The same document with ascending bounds and a correct sum passes.
  MetricsCheckReport report;
  EXPECT_TRUE(validate_metrics_json(
      "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"kernel.host_ms\": "
      "{\"count\": 2, \"sum\": 1.0, \"min\": 0.0, \"max\": 1.0, \"mean\": 0.5, "
      "\"buckets\": [{\"le\": 2.0, \"count\": 1}, {\"le\": 4.0, \"count\": 1}]}}}",
      &error, &report))
      << error;
  EXPECT_EQ(report.histograms, 1u);
}

TEST(MetricsCheck, RejectsUndeclaredNames) {
  std::string error;
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {\"kernel.runz\": 1}, \"gauges\": {}, \"histograms\": {}}", &error));
  EXPECT_NE(error.find("undeclared counter 'kernel.runz'"), std::string::npos) << error;
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {}, \"gauges\": {\"obs_test.gauge\": 1.5}, \"histograms\": {}}", &error));
  EXPECT_NE(error.find("undeclared gauge"), std::string::npos) << error;
  EXPECT_TRUE(validate_metrics_json(
      "{\"counters\": {\"kernel.runs\": 1}, \"gauges\": {}, \"histograms\": {}}", &error))
      << error;
}

TEST(MetricsCheck, RejectsDeclaredNamesInTheWrongSection) {
  std::string error;
  // A histogram name filed as a counter, and a counter as a gauge.
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {\"kernel.host_ms\": 1}, \"gauges\": {}, \"histograms\": {}}", &error));
  EXPECT_NE(error.find("kernel.host_ms"), std::string::npos) << error;
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {}, \"gauges\": {\"kernel.runs\": 1}, \"histograms\": {}}", &error));
  EXPECT_NE(error.find("kernel.runs"), std::string::npos) << error;
  EXPECT_FALSE(validate_metrics_json(
      "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"kernel.runs\": "
      "{\"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0, \"mean\": 0, \"buckets\": []}}}",
      &error));
  EXPECT_NE(error.find("undeclared histogram 'kernel.runs'"), std::string::npos) << error;
}

}  // namespace
}  // namespace nmdt::obs
