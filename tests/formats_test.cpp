// Unit and property tests for the formats module: validation failure
// injection, round-trip conversions, tiling partition properties, and
// footprint accounting identities.
#include <gtest/gtest.h>

#include <sstream>

#include "formats/convert.hpp"
#include "formats/footprint.hpp"
#include "formats/matrix_market.hpp"
#include "formats/tiling.hpp"
#include "matgen/suite.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

/// The paper's Fig. 1 example: 3x4 with entries a,b,c in row 0 and x,y
/// in row 2; row 1 empty.
Csr fig1_matrix() {
  Coo coo;
  coo.rows = 3;
  coo.cols = 4;
  coo.push(0, 0, 1.0f);  // a
  coo.push(0, 1, 2.0f);  // b
  coo.push(0, 2, 3.0f);  // c
  coo.push(2, 1, 4.0f);  // x
  coo.push(2, 3, 5.0f);  // y
  return csr_from_coo(coo);
}

Coo random_coo(index_t rows, index_t cols, double density, u64 seed) {
  Rng rng(seed);
  Coo coo;
  coo.rows = rows;
  coo.cols = cols;
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.chance(density)) coo.push(r, c, static_cast<value_t>(rng.uniform(-1, 1)));
    }
  }
  return coo;
}

TEST(Coo, DensityAndPush) {
  Coo coo;
  coo.rows = 10;
  coo.cols = 10;
  coo.push(1, 2, 3.0f);
  EXPECT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(csr_from_coo(coo).density(), 0.01);
}

TEST(Coo, CoalesceSumsDuplicates) {
  Coo coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.push(1, 1, 2.0f);
  coo.push(0, 0, 1.0f);
  coo.push(1, 1, 3.0f);
  coo.coalesce();
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.row[0], 0);
  EXPECT_FLOAT_EQ(coo.val[1], 5.0f);
}

TEST(Coo, ValidateRejectsOutOfRange) {
  Coo coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.push(2, 0, 1.0f);
  EXPECT_THROW(coo.validate(), FormatError);
}

TEST(Coo, ValidateRejectsLengthMismatch) {
  Coo coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.row.push_back(0);
  EXPECT_THROW(coo.validate(), FormatError);
}

TEST(Csr, Fig1Example) {
  const Csr csr = fig1_matrix();
  EXPECT_EQ(csr.nnz(), 5);
  EXPECT_EQ(csr.rows, 3);
  // Paper Fig. 1: row_ptr = [0, 3, 3, 5]; row 1 is empty.
  EXPECT_EQ(csr.row_ptr, (std::vector<index_t>{0, 3, 3, 5}));
  EXPECT_TRUE(csr.row_empty(1));
  EXPECT_EQ(compute_stats(csr).nonzero_rows, 2);
}

TEST(Csr, ValidateRejectsNonMonotoneRowPtr) {
  Csr csr = fig1_matrix();
  csr.row_ptr[1] = 4;
  csr.row_ptr[2] = 3;
  EXPECT_THROW(csr.validate(), FormatError);
}

TEST(Csr, ValidateRejectsBadColumnIndex) {
  Csr csr = fig1_matrix();
  csr.col_idx[0] = 99;
  EXPECT_THROW(csr.validate(), FormatError);
}

TEST(Csr, ValidateRejectsDescendingColumns) {
  Csr csr = fig1_matrix();
  std::swap(csr.col_idx[0], csr.col_idx[1]);
  EXPECT_THROW(csr.validate(), FormatError);
}

TEST(Csr, ValidateRejectsWrongRowPtrLength) {
  Csr csr = fig1_matrix();
  csr.row_ptr.pop_back();
  EXPECT_THROW(csr.validate(), FormatError);
}

TEST(Csc, TransposeOfFig1) {
  const Csc csc = csc_from_csr(fig1_matrix());
  csc.validate();
  EXPECT_EQ(csc.nnz(), 5);
  EXPECT_EQ(csc.col_ptr[2] - csc.col_ptr[1], 2);  // b and x live in column 1
  EXPECT_EQ(csc.col_ptr[4] - csc.col_ptr[3], 1);  // y
}

TEST(Csc, ValidateRejectsNonAscendingRows) {
  Csc csc = csc_from_csr(fig1_matrix());
  std::swap(csc.row_idx[csc.col_ptr[1]], csc.row_idx[csc.col_ptr[1] + 1]);
  EXPECT_THROW(csc.validate(), FormatError);
}

TEST(Dcsr, DropsEmptyRows) {
  const Dcsr d = dcsr_from_csr(fig1_matrix());
  d.validate();
  EXPECT_EQ(d.nnz_rows(), 2);
  EXPECT_EQ(d.row_idx, (std::vector<index_t>{0, 2}));
  EXPECT_EQ(d.nnz(), 5);
}

TEST(Dcsr, ValidateRejectsEmptyDenseRow) {
  Dcsr d = dcsr_from_csr(fig1_matrix());
  d.row_idx.push_back(1);
  d.row_ptr.push_back(d.row_ptr.back());  // empty segment — illegal in DCSR
  EXPECT_THROW(d.validate(), FormatError);
}

TEST(Dense, RandomizeAndDiff) {
  Rng rng(1);
  DenseMatrix a(4, 5);
  a.randomize(rng);
  DenseMatrix b = a;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  b.at(2, 3) += 0.5f;
  EXPECT_NEAR(a.max_abs_diff(b), 0.5, 1e-6);
}

TEST(Dense, DiffRejectsShapeMismatch) {
  DenseMatrix a(2, 2), b(2, 3);
  EXPECT_THROW(a.max_abs_diff(b), FormatError);
}

// ---------------------------------------------------------------------
// Round-trip property tests over random matrices.
// ---------------------------------------------------------------------

class RoundTrip : public testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(RoundTrip, CooCsrCooPreservesEntries) {
  const auto [rows, cols, density] = GetParam();
  Coo coo = random_coo(rows, cols, density, 100 + rows);
  Csr csr = csr_from_coo(coo);
  csr.validate();
  Coo back = coo_from_csr(csr);
  coo.coalesce();
  back.coalesce();
  EXPECT_EQ(coo.row, back.row);
  EXPECT_EQ(coo.col, back.col);
  EXPECT_EQ(coo.val, back.val);
}

TEST_P(RoundTrip, CsrCscCsrIsIdentity) {
  const auto [rows, cols, density] = GetParam();
  const Csr csr = csr_from_coo(random_coo(rows, cols, density, 200 + rows));
  const Csc csc = csc_from_csr(csr);
  csc.validate();
  const Csr back = csr_from_csc(csc);
  EXPECT_EQ(csr.row_ptr, back.row_ptr);
  EXPECT_EQ(csr.col_idx, back.col_idx);
  EXPECT_EQ(csr.val, back.val);
}

TEST_P(RoundTrip, CsrDcsrCsrIsIdentity) {
  const auto [rows, cols, density] = GetParam();
  const Csr csr = csr_from_coo(random_coo(rows, cols, density, 300 + rows));
  const Dcsr d = dcsr_from_csr(csr);
  d.validate();
  const Csr back = csr_from_dcsr(d);
  EXPECT_EQ(csr.row_ptr, back.row_ptr);
  EXPECT_EQ(csr.col_idx, back.col_idx);
  EXPECT_EQ(csr.val, back.val);
}

TEST_P(RoundTrip, DenseRoundTrip) {
  const auto [rows, cols, density] = GetParam();
  const Csr csr = csr_from_coo(random_coo(rows, cols, density, 400 + rows));
  const Csr back = csr_from_dense(dense_from_csr(csr));
  EXPECT_EQ(csr.col_idx, back.col_idx);
  EXPECT_EQ(csr.val, back.val);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTrip,
    testing::Values(std::make_tuple(1, 1, 1.0), std::make_tuple(16, 16, 0.1),
                    std::make_tuple(64, 32, 0.05), std::make_tuple(33, 67, 0.02),
                    std::make_tuple(128, 128, 0.01), std::make_tuple(5, 200, 0.1),
                    std::make_tuple(200, 5, 0.1), std::make_tuple(50, 50, 0.0)));

// ---------------------------------------------------------------------
// Tiling partition properties.
// ---------------------------------------------------------------------

class Tiling : public testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Tiling, DcsrTilesPartitionEveryNonZeroExactlyOnce) {
  const auto [rows, cols, width, height] = GetParam();
  const Csr csr = csr_from_coo(random_coo(rows, cols, 0.05, 500 + rows + cols));
  TilingSpec spec{static_cast<index_t>(width), static_cast<index_t>(height)};
  const TiledDcsr tiled = tiled_dcsr_from_csr(csr, spec);
  Coo reassembled = coo_from_tiled(tiled);
  reassembled.coalesce();
  Coo original = coo_from_csr(csr);
  original.coalesce();
  EXPECT_EQ(reassembled.row, original.row);
  EXPECT_EQ(reassembled.col, original.col);
  EXPECT_EQ(reassembled.val, original.val);
}

TEST_P(Tiling, CsrTilesPartitionEveryNonZeroExactlyOnce) {
  const auto [rows, cols, width, height] = GetParam();
  const Csr csr = csr_from_coo(random_coo(rows, cols, 0.05, 600 + rows + cols));
  TilingSpec spec{static_cast<index_t>(width), static_cast<index_t>(height)};
  const TiledCsr tiled = tiled_csr_from_csr(csr, spec);
  Coo reassembled = coo_from_tiled(tiled);
  reassembled.coalesce();
  Coo original = coo_from_csr(csr);
  original.coalesce();
  EXPECT_EQ(reassembled.row, original.row);
  EXPECT_EQ(reassembled.col, original.col);
  EXPECT_EQ(reassembled.val, original.val);
}

TEST_P(Tiling, TileBodiesAreValidAndLocal) {
  const auto [rows, cols, width, height] = GetParam();
  const Csr csr = csr_from_coo(random_coo(rows, cols, 0.05, 700 + rows + cols));
  TilingSpec spec{static_cast<index_t>(width), static_cast<index_t>(height)};
  const TiledDcsr tiled = tiled_dcsr_from_csr(csr, spec);
  for (const auto& strip : tiled.strips) {
    for (const auto& tile : strip) {
      tile.body.validate();
      EXPECT_LE(tile.body.rows, spec.tile_height);
      EXPECT_LE(tile.body.cols, spec.strip_width);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Tiling,
    testing::Values(std::make_tuple(64, 64, 64, 64), std::make_tuple(100, 100, 64, 64),
                    std::make_tuple(128, 96, 32, 16), std::make_tuple(65, 129, 64, 64),
                    std::make_tuple(7, 7, 64, 64), std::make_tuple(200, 40, 8, 128)));

TEST(Tiling, StripDensityMatchesFig1) {
  // Fig. 1 matrix, strip width 2: strip 0 covers cols {0,1} and touches
  // rows {0,2}; strip 1 covers cols {2,3} and touches rows {0,2}.
  const std::vector<double> density = strip_nonzero_row_density(fig1_matrix(), 2);
  ASSERT_EQ(density.size(), 2u);
  EXPECT_NEAR(density[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(density[1], 2.0 / 3.0, 1e-12);
}

TEST(Tiling, RejectsZeroWidth) {
  TilingSpec spec{0, 64};
  EXPECT_THROW(tiled_dcsr_from_csr(fig1_matrix(), spec), ConfigError);
}

// ---------------------------------------------------------------------
// Footprint accounting.
// ---------------------------------------------------------------------

TEST(Footprint, CsrMatchesAnalyticalFormula) {
  const Csr csr = fig1_matrix();
  const Footprint f = footprint(csr);
  // Paper Sec. 2: 8*nnz + 4*(rows+1).
  EXPECT_EQ(f.total(), csr_bytes(csr.rows, csr.nnz()));
  EXPECT_EQ(f.data_bytes, 5 * 4);
  EXPECT_EQ(f.metadata_bytes, 5 * 4 + 4 * 4);
}

TEST(Footprint, DcsrSmallerRowPtrButExtraRowIdx) {
  const Csr csr = fig1_matrix();
  const Dcsr d = dcsr_from_csr(csr);
  const Footprint fc = footprint(csr);
  const Footprint fd = footprint(d);
  // 2 non-empty rows: row_ptr 3 entries + row_idx 2 entries vs 4 entries.
  EXPECT_EQ(fd.metadata_bytes - fc.metadata_bytes, (3 + 2 - 4) * 4);
}

TEST(Footprint, TiledCsrPaysRowPtrPerTile) {
  // A highly sparse matrix tiled into 64-wide strips: tiled CSR metadata
  // should dwarf tiled DCSR metadata (the Fig. 8 effect).
  const Csr csr = csr_from_coo(random_coo(512, 512, 0.002, 42));
  TilingSpec spec{64, 64};
  const Footprint fcsr = footprint(tiled_csr_from_csr(csr, spec));
  const Footprint fdcsr = footprint(tiled_dcsr_from_csr(csr, spec));
  EXPECT_GT(fcsr.metadata_bytes, 2 * fdcsr.metadata_bytes);
  EXPECT_EQ(fcsr.data_bytes, fdcsr.data_bytes);
}

TEST(Footprint, AccumulateOperator) {
  Footprint a{10, 20}, b{1, 2};
  a += b;
  EXPECT_EQ(a.data_bytes, 11);
  EXPECT_EQ(a.metadata_bytes, 22);
  EXPECT_EQ(a.total(), 33);
}

// ---------------------------------------------------------------------
// Matrix Market I/O.
// ---------------------------------------------------------------------

TEST(MatrixMarket, RoundTrip) {
  const Csr csr = fig1_matrix();
  std::ostringstream os;
  write_matrix_market(os, coo_from_csr(csr));
  std::istringstream is(os.str());
  const Csr back = csr_from_coo(read_matrix_market(is));
  EXPECT_EQ(csr.row_ptr, back.row_ptr);
  EXPECT_EQ(csr.col_idx, back.col_idx);
  EXPECT_EQ(csr.val, back.val);
}

TEST(MatrixMarket, ParsesPattern) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% comment line\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const Coo coo = read_matrix_market(is);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_FLOAT_EQ(coo.val[0], 1.0f);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  const Coo coo = read_matrix_market(is);
  EXPECT_EQ(coo.nnz(), 3);  // (2,1), (1,2), (3,3)
}

TEST(MatrixMarket, ExpandsSkewSymmetric) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 5.0\n");
  const Coo coo = read_matrix_market(is);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_FLOAT_EQ(coo.val[0] + coo.val[1], 0.0f);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream is("3 3 0\n");
  EXPECT_THROW(read_matrix_market(is), ParseError);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::istringstream is("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(read_matrix_market(is), ParseError);
}

TEST(MatrixMarket, RejectsOutOfRangeCoordinate) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), ParseError);
}

TEST(MatrixMarket, RejectsTruncatedFile) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), ParseError);
}

TEST(MatrixMarket, RejectsMissingFile) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"), ParseError);
}

TEST(MatrixMarket, RandomizeValuesIsDeterministic) {
  Coo a = coo_from_csr(fig1_matrix());
  Coo b = a;
  Rng r1(9), r2(9);
  randomize_values(a, r1);
  randomize_values(b, r2);
  EXPECT_EQ(a.val, b.val);
}

}  // namespace
}  // namespace nmdt
