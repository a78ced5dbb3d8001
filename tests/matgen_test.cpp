// Generator tests: determinism, density/shape targets, distributional
// properties per family, suite construction, and statistics.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/profile.hpp"
#include "matgen/generators.hpp"
#include "formats/convert.hpp"
#include "matgen/suite.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

TEST(Generators, UniformIsDeterministic) {
  const Csr a = gen_uniform(256, 256, 0.01, 99);
  const Csr b = gen_uniform(256, 256, 0.01, 99);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.val, b.val);
  const Csr c = gen_uniform(256, 256, 0.01, 100);
  EXPECT_NE(a.col_idx, c.col_idx);
}

TEST(Generators, UniformHitsDensityTarget) {
  const Csr m = gen_uniform(1024, 1024, 0.005, 1);
  m.validate();
  EXPECT_NEAR(m.density(), 0.005, 0.0005);
}

TEST(Generators, UniformRowsAreBalanced) {
  const Csr m = gen_uniform(2048, 2048, 0.01, 4);
  const MatrixStats s = compute_stats(m);
  EXPECT_LT(s.nnz_row_cv, 0.4) << "uniform rows should have low variation";
}

TEST(Generators, PowerlawRowsAreSkewed) {
  const Csr m = gen_powerlaw_rows(2048, 2048, 0.005, 1.2, 5);
  m.validate();
  const MatrixStats s = compute_stats(m);
  EXPECT_GT(s.nnz_row_cv, 1.0) << "power-law rows must be heavy-tailed";
  EXPECT_LT(s.nnz_col_cv, 0.6) << "columns stay near-uniform";
}

TEST(Generators, PowerlawColsAreSkewed) {
  const Csr m = gen_powerlaw_cols(2048, 2048, 0.005, 1.2, 6);
  m.validate();
  const MatrixStats s = compute_stats(m);
  EXPECT_GT(s.nnz_col_cv, 1.0);
  EXPECT_LT(s.nnz_row_cv, 0.6);
}

TEST(Generators, RmatProducesClusteredStructure) {
  const Csr m = gen_rmat(10, 8.0, 0.57, 0.19, 0.19, 0.05, 7);
  m.validate();
  EXPECT_EQ(m.rows, 1024);
  EXPECT_GT(m.nnz(), 4000);  // 8k edges minus duplicate collapse
  // Recursive quadrant bias concentrates mass → lower entropy than a
  // uniform matrix of the same density.
  const TilingSpec spec{64, 64};
  const Csr u = gen_uniform(1024, 1024, m.density(), 8);
  EXPECT_LT(profile_matrix(m, spec).h_norm, profile_matrix(u, spec).h_norm);
}

TEST(Generators, RmatValidatesProbabilities) {
  EXPECT_THROW(gen_rmat(8, 8.0, 0.5, 0.5, 0.5, 0.5, 1), ConfigError);
  EXPECT_THROW(gen_rmat(0, 8.0, 0.25, 0.25, 0.25, 0.25, 1), ConfigError);
}

TEST(Generators, BandedStaysInBand) {
  const index_t bw = 5;
  const Csr m = gen_banded(200, bw, 0.5, 9);
  m.validate();
  for (index_t r = 0; r < m.rows; ++r) {
    for (index_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      EXPECT_LE(std::abs(m.col_idx[k] - r), bw);
    }
    EXPECT_GE(m.row_nnz(r), 1) << "diagonal is always kept";
  }
}

TEST(Generators, BlockClusteredConcentratesInBlocks) {
  const Csr m = gen_block_clustered(256, 8, 0.2, 0.0, 10);
  m.validate();
  const index_t block = 256 / 8;
  for (index_t r = 0; r < m.rows; ++r) {
    for (index_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      EXPECT_EQ(r / block, m.col_idx[k] / block) << "inter_density=0 → block diagonal";
    }
  }
}

TEST(Generators, Stencil5ptStructure) {
  const Csr m = gen_stencil_5pt(10, 10);
  m.validate();
  EXPECT_EQ(m.rows, 100);
  // Interior points have 5 entries, corners 3.
  EXPECT_EQ(m.row_nnz(5 * 10 + 5), 5);
  EXPECT_EQ(m.row_nnz(0), 3);
  EXPECT_FLOAT_EQ(m.val[m.row_ptr[0]], 4.0f);  // diagonal first in row 0
}

TEST(Suite, StandardSuiteIsNonTrivialAndNamed) {
  const auto suite = standard_suite(SuiteScale::kTiny);
  EXPECT_GE(suite.size(), 30u);
  std::set<std::string> names;
  for (const auto& s : suite) {
    EXPECT_FALSE(s.name.empty());
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), suite.size()) << "spec names must be unique";
}

TEST(Suite, ScalesGrowTheSuite) {
  EXPECT_LT(standard_suite(SuiteScale::kTiny).size(),
            standard_suite(SuiteScale::kMedium).size());
}

TEST(Suite, EverySpecGeneratesAValidMatrix) {
  for (const auto& spec : standard_suite(SuiteScale::kTiny)) {
    const Csr m = spec.generate();
    m.validate();
    EXPECT_GT(m.rows, 0) << spec.name;
  }
}

TEST(Suite, SmokeSuiteCoversAllFamilies) {
  const auto suite = smoke_suite();
  std::set<MatrixFamily> families;
  for (const auto& s : suite) {
    families.insert(s.family);
    s.generate().validate();
  }
  EXPECT_EQ(families.size(), 7u);
}

TEST(Suite, GenerationIsDeterministicAcrossCalls) {
  const auto suite = smoke_suite();
  const Csr a = suite[1].generate();
  const Csr b = suite[1].generate();
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.val, b.val);
}

TEST(Stats, CountsMatchDefinition) {
  Coo coo;
  coo.rows = 4;
  coo.cols = 4;
  coo.push(0, 0, 1.0f);
  coo.push(0, 1, 1.0f);
  coo.push(2, 1, 1.0f);
  const MatrixStats s = compute_stats(csr_from_coo(coo));
  EXPECT_EQ(s.nnz, 3);
  EXPECT_EQ(s.nonzero_rows, 2);
  EXPECT_EQ(s.nonzero_cols, 2);
  EXPECT_DOUBLE_EQ(s.nnz_row_mean, 0.75);
  EXPECT_DOUBLE_EQ(s.nnz_row_max, 2.0);
  EXPECT_DOUBLE_EQ(s.nnz_col_max, 2.0);
}

TEST(Stats, FamilyNamesDistinct) {
  std::set<std::string> names;
  for (MatrixFamily f :
       {MatrixFamily::kUniform, MatrixFamily::kPowerlawRows, MatrixFamily::kPowerlawCols,
        MatrixFamily::kRmat, MatrixFamily::kBanded, MatrixFamily::kBlockClustered,
        MatrixFamily::kStencil}) {
    names.insert(family_name(f));
  }
  EXPECT_EQ(names.size(), 7u);
}

}  // namespace
}  // namespace nmdt
