#include "util/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace nmdt {

std::string sparkline(const std::vector<double>& ys, usize width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  std::vector<double> vals;
  vals.reserve(ys.size());
  for (double y : ys) {
    if (std::isfinite(y)) vals.push_back(y);
  }
  if (vals.empty() || width == 0) return "";
  // Bucket long series down to `width` cells, keeping the max per bucket
  // so a single spike stays visible after downsampling.
  std::vector<double> cells;
  if (vals.size() <= width) {
    cells = vals;
  } else {
    cells.resize(width);
    for (usize c = 0; c < width; ++c) {
      const usize lo = c * vals.size() / width;
      const usize hi = std::max(lo + 1, (c + 1) * vals.size() / width);
      double m = vals[lo];
      for (usize i = lo + 1; i < hi && i < vals.size(); ++i) m = std::max(m, vals[i]);
      cells[c] = m;
    }
  }
  const auto [mn_it, mx_it] = std::minmax_element(cells.begin(), cells.end());
  const double mn = *mn_it, mx = *mx_it;
  std::string out;
  for (double v : cells) {
    int level = 3;  // flat series render mid-height
    if (mx > mn) {
      level = static_cast<int>((v - mn) / (mx - mn) * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kLevels[level];
  }
  return out;
}

AsciiScatter::AsciiScatter(int width, int height) : width_(width), height_(height) {
  NMDT_CHECK_CONFIG(width >= 10 && height >= 4, "scatter grid too small");
}

void AsciiScatter::add(double x, double y, char marker) {
  points_.push_back({x, y, marker});
}

void AsciiScatter::set_labels(std::string x_label, std::string y_label) {
  x_label_ = std::move(x_label);
  y_label_ = std::move(y_label);
}

void AsciiScatter::render(std::ostream& os) const {
  auto usable = [](const Point& p) {
    return std::isfinite(p.x) && std::isfinite(p.y) && p.x > 0.0 && p.y > 0.0;
  };

  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = xmin, ymax = -xmin;
  usize plotted = 0;
  for (const auto& p : points_) {
    if (!usable(p)) continue;
    ++plotted;
    xmin = std::min(xmin, std::log10(p.x));
    xmax = std::max(xmax, std::log10(p.x));
    ymin = std::min(ymin, std::log10(p.y));
    ymax = std::max(ymax, std::log10(p.y));
  }
  for (double h : hlines_) {
    if (h > 0.0) {
      ymin = std::min(ymin, std::log10(h));
      ymax = std::max(ymax, std::log10(h));
    }
  }
  if (plotted == 0) {
    os << "(no plottable points)\n";
    return;
  }
  if (xmax - xmin < 1e-12) xmax = xmin + 1.0;
  if (ymax - ymin < 1e-12) ymax = ymin + 1.0;

  std::vector<std::string> grid(static_cast<usize>(height_),
                                std::string(static_cast<usize>(width_), ' '));
  auto row_of = [&](double v) {
    const double t = (std::log10(v) - ymin) / (ymax - ymin);
    return std::clamp(height_ - 1 - static_cast<int>(t * (height_ - 1) + 0.5), 0,
                      height_ - 1);
  };
  for (double h : hlines_) {
    if (h <= 0.0) continue;
    std::fill(grid[static_cast<usize>(row_of(h))].begin(),
              grid[static_cast<usize>(row_of(h))].end(), '-');
  }
  for (const auto& p : points_) {
    if (!usable(p)) continue;
    const double u = (std::log10(p.x) - xmin) / (xmax - xmin);
    const int col = std::clamp(static_cast<int>(u * (width_ - 1) + 0.5), 0, width_ - 1);
    grid[static_cast<usize>(row_of(p.y))][static_cast<usize>(col)] = p.marker;
  }

  auto fmt_edge = [](double v) { return format_sci(std::pow(10.0, v)); };
  os << y_label_ << "\n";
  for (int r = 0; r < height_; ++r) {
    const double v = ymax - (ymax - ymin) * r / (height_ - 1);
    os << std::setw(9) << fmt_edge(v) << " |" << grid[static_cast<usize>(r)] << "\n";
  }
  os << std::string(11, ' ') << std::string(static_cast<usize>(width_), '-') << "\n"
     << std::string(11, ' ') << fmt_edge(xmin)
     << std::string(static_cast<usize>(std::max(1, width_ - 18)), ' ') << fmt_edge(xmax)
     << "   (" << x_label_ << ")\n";
}

}  // namespace nmdt
