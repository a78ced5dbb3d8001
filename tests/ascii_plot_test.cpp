// Rendering tests for the terminal scatter plots used by the figure
// benches.
#include <gtest/gtest.h>

#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(AsciiPlot, RendersMarkersAndRule) {
  AsciiScatter p(40, 10);
  p.add(1.0, 0.5, 'a');
  p.add(100.0, 2.0, 'b');
  p.add_hline(1.0);
  std::ostringstream os;
  p.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find('a'), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);  // the y=1 rule
}

TEST(AsciiPlot, DropsNonPositiveInLogMode) {
  AsciiScatter p(40, 10);
  p.add(-5.0, 1.0, 'x');
  p.add(0.0, 1.0, 'x');
  std::ostringstream os;
  p.render(os);
  EXPECT_NE(os.str().find("no plottable points"), std::string::npos);
}

TEST(AsciiPlot, ExtremePointsLandOnOppositeCorners) {
  AsciiScatter p(40, 10);
  p.add(1.0, 1.0, 'L');
  p.add(10.0, 10.0, 'H');
  std::ostringstream os;
  p.render(os);
  std::istringstream lines(os.str());
  std::string line, first_data_line, last_data_line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (line.find('|') == std::string::npos) continue;
    if (first) {
      first_data_line = line;
      first = false;
    }
    last_data_line = line;
  }
  EXPECT_NE(first_data_line.find('H'), std::string::npos) << "max y on top row";
  EXPECT_NE(last_data_line.find('L'), std::string::npos) << "min y on bottom row";
}

TEST(AsciiPlot, SinglePointDoesNotDivideByZero) {
  AsciiScatter p(40, 10);
  p.add(1.0, 1.0, '*');
  std::ostringstream os;
  p.render(os);
  EXPECT_NE(os.str().find('*'), std::string::npos);
}

TEST(AsciiPlot, LabelsAppear) {
  AsciiScatter p(40, 10);
  p.set_labels("ssf", "speedup");
  p.add(1.0, 1.0, '*');
  std::ostringstream os;
  p.render(os);
  EXPECT_NE(os.str().find("ssf"), std::string::npos);
  EXPECT_NE(os.str().find("speedup"), std::string::npos);
}

TEST(AsciiPlot, RejectsTinyGrid) { EXPECT_THROW(AsciiScatter(2, 2), ConfigError); }

}  // namespace
}  // namespace nmdt
