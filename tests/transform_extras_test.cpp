// Tests for the transform-module extensions: the Sec. 4.1 CSR-baseline
// strawmen (stateless/stateful converters) and the dynamic
// prefetch-buffer model.
#include <gtest/gtest.h>

#include "formats/convert.hpp"
#include "matgen/generators.hpp"
#include "transform/buffer_model.hpp"
#include "transform/csr_baseline.hpp"
#include "transform/engine.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

// ---------------------------------------------------------------------
// CSR baseline converters (Sec. 4.1).
// ---------------------------------------------------------------------

void expect_tiles_equal(const std::vector<DcsrTile>& a, const std::vector<DcsrTile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (usize t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].body.row_idx, b[t].body.row_idx) << "tile " << t;
    EXPECT_EQ(a[t].body.row_ptr, b[t].body.row_ptr) << "tile " << t;
    EXPECT_EQ(a[t].body.col_idx, b[t].body.col_idx) << "tile " << t;
    EXPECT_EQ(a[t].body.val, b[t].body.val) << "tile " << t;
  }
}

class CsrBaseline : public testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(CsrBaseline, AllThreeConvertersProduceIdenticalTiles) {
  const auto [rows, cols, density] = GetParam();
  const Csr csr = gen_uniform(rows, cols, density, 900 + rows);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;
  CsrStatefulConverter stateful(csr);
  CsrConversionCosts stateless_costs;
  for (index_t s = 0; s < spec.num_strips(csr.cols); ++s) {
    const auto reference = engine.convert_strip(csc, s, spec);
    expect_tiles_equal(csr_stateless_convert_strip(csr, s, spec, stateless_costs),
                       reference);
    expect_tiles_equal(stateful.convert_strip(s, spec), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CsrBaseline,
                         testing::Values(std::make_tuple(200, 200, 0.02),
                                         std::make_tuple(128, 300, 0.05),
                                         std::make_tuple(300, 65, 0.01),
                                         std::make_tuple(100, 100, 0.0)));

TEST(CsrBaseline, StatelessProbesEveryRowPerStrip) {
  const Csr csr = gen_uniform(256, 256, 0.01, 1);
  const TilingSpec spec{64, 64};
  CsrConversionCosts costs;
  for (index_t s = 0; s < spec.num_strips(csr.cols); ++s) {
    csr_stateless_convert_strip(csr, s, spec, costs);
  }
  EXPECT_EQ(costs.rows_scanned,
            static_cast<u64>(csr.rows) * static_cast<u64>(spec.num_strips(csr.cols)));
  EXPECT_EQ(costs.state_bytes, 0);
  EXPECT_EQ(costs.elements_emitted, static_cast<u64>(csr.nnz()));
}

TEST(CsrBaseline, StatefulKeepsJaggedFrontier) {
  const Csr csr = gen_uniform(256, 256, 0.01, 2);
  CsrStatefulConverter conv(csr);
  EXPECT_EQ(conv.costs().state_bytes, csr.rows * 4);
}

TEST(CsrBaseline, StatefulRejectsRandomStripAccess) {
  const Csr csr = gen_uniform(256, 256, 0.01, 3);
  const TilingSpec spec{64, 64};
  CsrStatefulConverter conv(csr);
  conv.convert_strip(0, spec);
  EXPECT_THROW(conv.convert_strip(3, spec), FormatError);  // skipping ahead
  CsrStatefulConverter conv2(csr);
  conv2.convert_strip(0, spec);
  conv2.convert_strip(1, spec);
  EXPECT_THROW(conv2.convert_strip(0, spec), FormatError);  // rewind
}

TEST(CsrBaseline, EngineDoesFarLessProbing) {
  // The Sec. 4.1 argument in one assertion: for a sparse matrix the
  // engine's work scales with elements, the CSR designs with rows.
  const Csr csr = gen_uniform(2048, 2048, 0.0005, 4);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  CsrConversionCosts stateless;
  ConversionEngine engine;
  for (index_t s = 0; s < spec.num_strips(csr.cols); ++s) {
    csr_stateless_convert_strip(csr, s, spec, stateless);
    engine.convert_strip(csc, s, spec);
  }
  EXPECT_LT(engine.stats().steps * 10, stateless.rows_scanned);
}

// ---------------------------------------------------------------------
// Prefetch buffer model (Sec. 5.3 sizing).
// ---------------------------------------------------------------------

TEST(BufferModel, PaperSizingHasNoStallsOnWorstCase) {
  const EngineHwModel hw;  // 256 B per lane
  const BufferSimResult r = simulate_prefetch_buffer(hw, single_lane_trace(10000));
  EXPECT_EQ(r.stall_beats, 0u);
  EXPECT_EQ(r.productive_beats, 10000u);
}

TEST(BufferModel, HalfSizedBufferStallsOnWorstCase) {
  EngineHwModel hw;
  hw.buffer_bytes_per_lane = 128;
  const BufferSimResult r = simulate_prefetch_buffer(hw, single_lane_trace(10000));
  EXPECT_GT(r.stall_fraction(), 0.3);
}

TEST(BufferModel, DoublePrecisionAlsoCovered) {
  const EngineHwModel hw;
  const BufferSimResult r =
      simulate_prefetch_buffer(hw, single_lane_trace(5000), /*double_precision=*/true);
  EXPECT_EQ(r.stall_beats, 0u);
}

TEST(BufferModel, RoundRobinTrafficNeverStalls) {
  EngineHwModel hw;
  hw.buffer_bytes_per_lane = 32;  // tiny buffer
  std::vector<int> trace;
  for (int i = 0; i < 6400; ++i) trace.push_back(i % 64);
  const BufferSimResult r = simulate_prefetch_buffer(hw, trace);
  EXPECT_EQ(r.stall_beats, 0u) << "64-beat revisit period exceeds any refill latency";
}

TEST(BufferModel, ConversionTraceMatchesStripElements) {
  const Csr csr = gen_uniform(300, 64, 0.05, 8);
  const Csc csc = csc_from_csr(csr);
  const std::vector<int> trace = conversion_lane_trace(csc, 0, TilingSpec{64, 64});
  EXPECT_EQ(static_cast<i64>(trace.size()), csr.nnz());
  for (int lane : trace) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, 64);
  }
}

TEST(BufferModel, RejectsBadLaneIds) {
  const EngineHwModel hw;
  const std::vector<int> bad{0, 99};
  EXPECT_THROW(simulate_prefetch_buffer(hw, bad), FormatError);
}

}  // namespace
}  // namespace nmdt
