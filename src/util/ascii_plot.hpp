// Terminal scatter plots for the figure benches: a log-log character
// grid that makes the Fig. 4 / Fig. 16 dot clouds legible straight from
// the bench output (the CSVs remain the precise record).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace nmdt {

/// One-line Unicode block sparkline ("▁▂▅█") of a series, min-max
/// normalized; series longer than `width` are bucketed (max per bucket,
/// so spikes survive downsampling).  Non-finite samples are dropped;
/// an empty or all-equal series renders flat.  Used by the trace-report
/// hotspot tables and the bench-trajectory renderer.
std::string sparkline(const std::vector<double>& ys, usize width = 24);

class AsciiScatter {
 public:
  /// `width`×`height` character cells.
  AsciiScatter(int width = 72, int height = 24);

  /// Add a point of series `marker` (later series overdraw earlier ones
  /// in shared cells).  Non-finite or non-positive values are dropped:
  /// both axes are logarithmic.
  void add(double x, double y, char marker);

  void set_labels(std::string x_label, std::string y_label);
  /// Draw a horizontal reference line (e.g. y = 1 for speedup plots).
  void add_hline(double y) { hlines_.push_back(y); }

  void render(std::ostream& os) const;

 private:
  struct Point {
    double x, y;
    char marker;
  };
  int width_, height_;
  std::string x_label_ = "x";
  std::string y_label_ = "y";
  std::vector<Point> points_;
  std::vector<double> hlines_;
};

}  // namespace nmdt
