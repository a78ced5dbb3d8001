// Small descriptive-statistics helpers used by the analysis module and
// the benchmark harness (geomean speedups, percentiles).
#pragma once

#include <span>

#include "util/types.hpp"

namespace nmdt {

double mean(std::span<const double> xs);
double geomean(std::span<const double> xs);  ///< requires all xs > 0
double median(std::span<const double> xs);

/// p in [0, 100]; linear interpolation between order statistics.
double percentile(std::span<const double> xs, double p);

/// Fraction of entries strictly greater than `threshold`.
double fraction_above(std::span<const double> xs, double threshold);

}  // namespace nmdt
