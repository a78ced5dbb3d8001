// Generator tests: determinism, density/shape targets, distributional
// properties per family, suite construction, and statistics.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "analysis/profile.hpp"
#include "matgen/generators.hpp"
#include "formats/convert.hpp"
#include "matgen/suite.hpp"
#include "util/crc32.hpp"
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

// Generator output pinned across commits: CRC-32 of row_ptr, col_idx
// and val for every smoke-suite family, a few medium-scale specs, the
// three `gen:` kinds at the nmdt_serve shapes, and both branches of
// gen_uniform's column sampler.  The constants were recorded while the
// generators still coalesced a COO and converted it to CSR; a changed
// draw order, a dropped draw or a different duplicate rule breaks them.
struct GoldenCase {
  const char* name;
  std::function<Csr()> generate;
  i64 nnz;
  u32 row_ptr_crc;
  u32 col_idx_crc;
  u32 val_crc;
};

template <class T>
u32 vector_crc(const std::vector<T>& v) {
  return crc32(v.data(), v.size() * sizeof(T));
}

TEST(Generators, OutputMatchesParentGolden) {
  auto spec = [](MatrixSpec s) { return [s] { return s.generate(); }; };
  const std::vector<GoldenCase> cases = {
      {"smoke_uniform", spec(smoke_suite()[0]), 555, 2229718809u, 3897559277u, 2053990124u},
      {"smoke_plrows", spec(smoke_suite()[1]), 507, 1669831720u, 2009472885u, 3739827600u},
      {"smoke_plcols", spec(smoke_suite()[2]), 500, 181318408u, 1049326318u, 897424292u},
      {"smoke_rmat", spec(smoke_suite()[3]), 3197, 2048963934u, 2625938922u, 520419168u},
      {"smoke_banded", spec(smoke_suite()[4]), 2904, 3894563480u, 483508640u, 3130266107u},
      {"smoke_blocks", spec(smoke_suite()[5]), 2961, 238182732u, 2331723429u, 2081574819u},
      {"smoke_stencil", spec(smoke_suite()[6]), 2332, 1061485302u, 4062112885u, 2652912116u},
      {"medium_plrows", spec({.name = {}, .family = MatrixFamily::kPowerlawRows, .rows = 4096,
                              .cols = 4096, .density = 0.01, .skew = 1.0, .seed = 1039}),
       133913, 2075716312u, 3537699648u, 2063516829u},
      {"medium_plcols", spec({.name = {}, .family = MatrixFamily::kPowerlawCols, .rows = 4096,
                              .cols = 4096, .density = 5e-4, .skew = 2.0, .seed = 1017}),
       5931, 2169879735u, 2891923120u, 3744624899u},
      {"medium_rmat", spec({.name = {}, .family = MatrixFamily::kRmat, .rows = 4096,
                            .cols = 4096, .density = 16.0, .skew = 0.45, .aux = 12,
                            .seed = 1042}),
       64296, 494688846u, 2112526159u, 4135240492u},
      {"medium_blocks", spec({.name = {}, .family = MatrixFamily::kBlockClustered,
                              .rows = 4096, .cols = 4096, .density = 0.1, .aux = 32,
                              .seed = 1046}),
       83632, 2993293222u, 257215461u, 2216150126u},
      {"medium_pruned", spec({.name = {}, .family = MatrixFamily::kMagnitudePruned,
                              .rows = 1024, .cols = 1024, .density = 0.1, .aux = 16,
                              .seed = 1050}),
       104960, 4175484472u, 3229241594u, 1691058568u},
      {"serve_uniform_4096", [] { return gen_uniform(4096, 4096, 0.002, 1); },
       33495, 1740070457u, 3301789366u, 2122013351u},
      {"serve_plrows_4096", [] { return gen_powerlaw_rows(4096, 4096, 0.002, 1.2, 1); },
       27613, 659824485u, 1481029807u, 83174891u},
      {"serve_plcols_4096", [] { return gen_powerlaw_cols(4096, 4096, 0.002, 1.2, 1); },
       27613, 79661248u, 1414092407u, 83174891u},
      {"serve_uniform_8192", [] { return gen_uniform(8192, 8192, 0.001, 2); },
       67113, 843313465u, 3187872570u, 3273009267u},
      {"serve_plrows_8192", [] { return gen_powerlaw_rows(8192, 8192, 0.001, 1.2, 2); },
       55770, 3497323257u, 1701203027u, 2000984420u},
      {"serve_plcols_8192", [] { return gen_powerlaw_cols(8192, 8192, 0.001, 1.2, 2); },
       55770, 568906365u, 2722627645u, 2000984420u},
      // lambda ~21 over 64 columns: rows of >= 22 draws take the dense
      // (shuffle) branch of the column sampler, the rest the sparse one.
      {"uniform_both_branches", [] { return gen_uniform(96, 64, 0.33, 21); },
       2015, 3301297180u, 2071206381u, 3591232978u},
      // lambda ~14 over 16 columns: some rows ask for more columns than
      // exist and are capped at a full row.
      {"uniform_capped_rows", [] { return gen_uniform(16, 16, 0.9, 22); },
       193, 3038227293u, 2951336288u, 1509107466u},
  };
  for (const GoldenCase& c : cases) {
    const Csr m = c.generate();
    m.validate();
    const u32 rp = vector_crc(m.row_ptr), ci = vector_crc(m.col_idx), v = vector_crc(m.val);
    EXPECT_EQ(m.nnz(), c.nnz) << c.name;
    EXPECT_EQ(rp, c.row_ptr_crc) << c.name;
    EXPECT_EQ(ci, c.col_idx_crc) << c.name;
    EXPECT_EQ(v, c.val_crc) << c.name;
  }
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
