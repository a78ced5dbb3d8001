#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <type_traits>

#include "util/error.hpp"

namespace nmdt::obs {

namespace {

void atomic_min(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void write_number(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

}  // namespace

double Histogram::bucket_bound(int i) { return std::ldexp(1.0, i - kZero); }

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
  int b = kBuckets - 1;
  if (v <= 0.0) {
    b = 0;
  } else {
    const int exp = static_cast<int>(std::ceil(std::log2(v)));
    b = std::clamp(exp + kZero, 0, kBuckets - 1);
  }
  buckets_[static_cast<usize>(b)].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = s.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i) {
    s.buckets[static_cast<usize>(i)] = buckets_[static_cast<usize>(i)].load(
        std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

namespace {

/// Call f(name, instrument) for every declared instrument, in name order.
template <class Registry, class F>
void for_each_instrument(Registry& reg, F&& f) {
#define NMDT_METRIC_VISIT(type, member, name) f(std::string_view(name), reg.member);
  NMDT_METRICS(NMDT_METRIC_VISIT)
#undef NMDT_METRIC_VISIT
}

template <class T, class U>
constexpr bool is_a = std::is_same_v<std::remove_cvref_t<U>, T>;

template <class T>
T& lookup(MetricsRegistry& reg, std::string_view name, const char* kind) {
  T* hit = nullptr;
  bool declared = false;
  for_each_instrument(reg, [&](std::string_view n, auto& inst) {
    if (n != name) return;
    declared = true;
    if constexpr (is_a<T, decltype(inst)>) hit = &inst;
  });
  if (!declared) throw ConfigError("undeclared metric '" + std::string(name) + "'");
  if (hit == nullptr) throw ConfigError("metric '" + std::string(name) + "' is not a " + kind);
  return *hit;
}

void write_value(std::ostream& os, const Counter& c) { os << c.value(); }

void write_value(std::ostream& os, const Gauge& g) { write_number(os, g.value()); }

void write_value(std::ostream& os, const Histogram& h) {
  const Histogram::Snapshot s = h.snapshot();
  os << "{\"count\": " << s.count << ", \"sum\": ";
  write_number(os, s.sum);
  os << ", \"min\": ";
  write_number(os, s.min);
  os << ", \"max\": ";
  write_number(os, s.max);
  os << ", \"mean\": ";
  write_number(os, s.mean());
  os << ", \"buckets\": [";
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (s.buckets[static_cast<usize>(i)] == 0) continue;
    os << (first ? "" : ", ") << "{\"le\": ";
    write_number(os, Histogram::bucket_bound(i));
    os << ", \"count\": " << s.buckets[static_cast<usize>(i)] << "}";
    first = false;
  }
  os << "]}";
}

template <class T>
void write_section(std::ostream& os, const MetricsRegistry& reg, const char* section) {
  os << "  \"" << section << "\": {";
  bool first = true;
  for_each_instrument(reg, [&](std::string_view name, const auto& inst) {
    if constexpr (is_a<T, decltype(inst)>) {
      os << (first ? "\n" : ",\n") << "    \"" << name << "\": ";
      write_value(os, inst);
      first = false;
    }
  });
  os << (first ? "" : "\n  ") << "}";
}

}  // namespace

const MetricDecl* find_metric(std::string_view name) {
  for (const MetricDecl& d : kMetricCatalogue) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return lookup<Counter>(*this, name, "counter");
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return lookup<Gauge>(*this, name, "gauge");
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return lookup<Histogram>(*this, name, "histogram");
}

void MetricsRegistry::reset() {
  for_each_instrument(*this, [](std::string_view, auto& inst) { inst.reset(); });
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n";
  write_section<Counter>(os, *this, "counters");
  os << ",\n";
  write_section<Gauge>(os, *this, "gauges");
  os << ",\n";
  write_section<Histogram>(os, *this, "histograms");
  os << "\n}\n";
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  NMDT_REQUIRE(os.good(), "cannot open metrics output path: " + path);
  write_json(os);
}

}  // namespace nmdt::obs
