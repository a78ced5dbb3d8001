#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace nmdt {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) {
    NMDT_REQUIRE(x > 0.0, "geomean requires strictly positive inputs");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  NMDT_REQUIRE(p >= 0.0 && p <= 100.0, "percentile requires p in [0, 100]");
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const usize lo = static_cast<usize>(rank);
  const usize hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double fraction_above(std::span<const double> xs, double threshold) {
  if (xs.empty()) return 0.0;
  usize n = 0;
  for (double x : xs) {
    if (x > threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

}  // namespace nmdt
