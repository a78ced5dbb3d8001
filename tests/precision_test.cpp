// Mixed-precision value pipeline tests: ToleranceComparator edge cases
// (NaN/Inf, empty rows, the eps boundary), determinism across the jobs
// axis for every kernel at every precision, PlanCache precision keying,
// and the serialized value-width contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "formats/retype.hpp"
#include "formats/serialize.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "transform/comparator.hpp"
#include "util/error.hpp"
#include "util/precision.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One-column matrices: each row is an independent comparison case with
/// its own scale, matching the comparator's per-row max_val contract.
DenseMatrixT<double> column(const std::vector<double>& v) {
  DenseMatrixT<double> m(static_cast<index_t>(v.size()), 1);
  for (usize i = 0; i < v.size(); ++i) m.at(static_cast<index_t>(i), 0) = v[i];
  return m;
}

TEST(ToleranceComparator, EpsExactlyAtBoundaryPasses) {
  // |e - a| == eps * max_val must PASS (the bound is strict-greater);
  // all quantities are exactly representable so there is no rounding
  // slack hiding the boundary.
  const ToleranceComparator cmp(0.5);
  const std::vector<double> scales{1.0, 1.0};
  const auto expected = column({0.0, 0.0});
  EXPECT_TRUE(cmp.compare(expected, column({0.5, -0.5}), scales).pass);
  const ToleranceVerdict over = cmp.compare(expected, column({0.75, 0.0}), scales);
  EXPECT_FALSE(over.pass);
  EXPECT_EQ(over.mismatched, 1u);
  EXPECT_EQ(over.first_row, 0);
  EXPECT_EQ(over.first_col, 0);
  EXPECT_DOUBLE_EQ(over.first_actual, 0.75);
}

TEST(ToleranceComparator, ZeroMaxValRequiresExactMatch) {
  // An empty row has max_val == 0: any bound-based check degenerates,
  // so the contract is exact equality (with ±0 conflated).
  const ToleranceComparator cmp(1.0);
  const std::vector<double> scales{0.0, 0.0, 0.0};
  EXPECT_TRUE(cmp.compare(column({0.0, 3.0, 0.0}), column({-0.0, 3.0, 0.0}), scales).pass);
  const ToleranceVerdict v =
      cmp.compare(column({0.0, 0.0, 0.0}), column({0.0, 1e-300, 0.0}), scales);
  EXPECT_FALSE(v.pass);  // even a denormal is a mismatch when max_val == 0
  EXPECT_EQ(v.first_row, 1);
}

TEST(ToleranceComparator, NanMustMatchNan) {
  const ToleranceComparator cmp(1.0);
  const std::vector<double> scales{1.0};
  EXPECT_TRUE(cmp.compare(column({kNan}), column({kNan}), scales).pass);
  EXPECT_FALSE(cmp.compare(column({kNan}), column({1.0}), scales).pass);
  EXPECT_FALSE(cmp.compare(column({1.0}), column({kNan}), scales).pass);
}

TEST(ToleranceComparator, InfMustMatchInSign) {
  const ToleranceComparator cmp(1.0);
  const std::vector<double> scales{1.0, 1.0};
  EXPECT_TRUE(cmp.compare(column({kInf, -kInf}), column({kInf, -kInf}), scales).pass);
  EXPECT_FALSE(cmp.compare(column({kInf, 0.0}), column({-kInf, 0.0}), scales).pass);
  EXPECT_FALSE(cmp.compare(column({kInf, 0.0}), column({1e308, 0.0}), scales).pass);
}

TEST(ToleranceComparator, MaxRelErrorTracksOnlyFiniteScaledElements) {
  const ToleranceComparator cmp(1.0);
  const std::vector<double> scales{2.0, 0.0, 1.0};
  const ToleranceVerdict v =
      cmp.compare(column({1.0, 0.0, kNan}), column({2.0, 0.0, kNan}), scales);
  EXPECT_TRUE(v.pass);                     // |1-2| = 1 <= 1.0 * 2.0
  EXPECT_DOUBLE_EQ(v.max_rel_error, 0.5);  // 1 / 2.0; NaN and empty rows excluded
  EXPECT_EQ(v.compared, 3u);
}

TEST(ToleranceComparator, CrossPrecisionF32PassesToleranceButFailsBitwise) {
  // The headline use: an f32 run of a real kernel against the f64
  // reference on the same operands is NOT bitwise equal (the narrow
  // accumulator rounds), yet every element sits inside the fSPMV bound.
  const Csr A = gen_powerlaw_rows(128, 128, 0.05, 1.2, 21);
  DenseMatrix B(A.cols, 8);
  Rng rng(3);
  B.randomize(rng);
  const SpmmConfig cfg = evaluation_config(A.rows, 8);
  const SpmmResult r = run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cfg);
  const DenseMatrixT<double> ref = spmm_reference_f64(A, B);
  const DenseMatrixT<double> actual = result_f64(r);

  EXPECT_GT(actual.max_abs_diff(ref), 0.0);  // fails bitwise
  const ToleranceVerdict v =
      ToleranceComparator(default_tolerance(Precision::kF32)).compare(ref, actual, A, B);
  EXPECT_TRUE(v.pass) << v.mismatched << " of " << v.compared << " out of bound";
  EXPECT_GT(v.max_rel_error, 0.0);
}

TEST(ToleranceComparator, RowScalesMatchHandComputedBound) {
  // 2x2: row 0 holds {2, -4}, row 1 empty.  max|B| = 3.
  Csr A;
  A.rows = 2;
  A.cols = 2;
  A.row_ptr = {0, 2, 2};
  A.col_idx = {0, 1};
  A.val = {2.0f, -4.0f};
  DenseMatrix B(2, 2);
  B.at(0, 0) = 3.0f;
  B.at(0, 1) = -1.0f;
  B.at(1, 0) = 0.5f;
  B.at(1, 1) = 1.0f;
  const std::vector<double> s = ToleranceComparator::row_scales(A, B);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0 * 4.0 * 3.0);  // nnz * max|A_row| * max|B|
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(Precision, EveryKernelIsBitIdenticalAcrossJobs) {
  // The determinism contract holds at every stored precision: shard
  // decomposition is jobs-invariant, so each kernel's result bytes and
  // metrics are identical at jobs 1 and 4 — the full f64 bits, and the
  // bf16 bits after the store re-rounds C.
  const Csr A = gen_powerlaw_rows(256, 256, 0.03, 1.2, 17);
  const index_t K = 16;
  Rng rng(5);
  DenseMatrix B(A.cols, K);
  B.randomize(rng);
  for (const Precision p : kAllPrecisions) {
    SpmmConfig cfg = evaluation_config(A.rows, K);
    cfg.precision = p;
    const auto plan = build_plan(A, plan_options_for(cfg));
    for (KernelKind kind : kAllKernels) {
      SCOPED_TRACE(std::string(kernel_name(kind)) + " at " + precision_name(p));
      SpmmConfig c1 = cfg, c4 = cfg;
      c1.jobs = 1;
      c4.jobs = 4;
      const SpmmResult r1 = SpmmExecutor(c1).execute(kind, *plan, B);
      const SpmmResult r4 = SpmmExecutor(c4).execute(kind, *plan, B);
      const auto bits1 = result_bits(r1);
      const auto bits4 = result_bits(r4);
      // Full-width bits: f64 keeps 8 bytes, bf16 is held in f32 bits.
      const usize width = p == Precision::kF64 ? sizeof(double) : sizeof(float);
      ASSERT_EQ(bits1.size(), static_cast<usize>(A.rows * K) * width);
      ASSERT_EQ(bits4.size(), bits1.size());
      EXPECT_EQ(std::memcmp(bits1.data(), bits4.data(), bits1.size()), 0);
      EXPECT_TRUE(r1.counters == r4.counters);
      EXPECT_TRUE(r1.mem == r4.mem);
      if (p != Precision::kBf16) continue;
      // Every stored bf16 element carries bf16-rounded bits: the low 16
      // mantissa bits of the f32 representation are zero.
      for (const float x : r1.C.data()) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(x) & 0xFFFFu, 0u);
      }
    }
  }
}

TEST(Bf16, ResultStaysInsideToleranceOfF64Reference) {
  const Csr A = gen_magnitude_pruned(192, 192, 0.3, 16, 9);
  DenseMatrix B(A.cols, 8);
  Rng rng(7);
  B.randomize(rng);
  SpmmConfig cfg = evaluation_config(A.rows, 8);
  cfg.precision = Precision::kBf16;
  const auto plan = build_plan(A, plan_options_for(cfg));
  const CsrT<bf16_t>& a = plan->csr_at<bf16_t>();
  const DenseMatrixT<bf16_t> b = retype<bf16_t>(B);
  const DenseMatrixT<double> ref = spmm_reference_f64(a, b);
  const SpmmResult r = SpmmExecutor(cfg).execute(KernelKind::kTiledDcsrOnline, *plan, B);
  const ToleranceVerdict v = ToleranceComparator(default_tolerance(Precision::kBf16))
                                 .compare(ref, result_f64(r), a, b);
  EXPECT_TRUE(v.pass) << v.mismatched << " of " << v.compared;
}

TEST(PlanCache, PrecisionIsPartOfTheKey) {
  // Same matrix, options differing only in precision: the cache must
  // MISS and keep both plans resident — aliasing would hand a bf16
  // execute an f32 operand set.
  PlanCache cache;
  const Csr A = gen_uniform(100, 100, 0.05, 1);
  PlanOptions f32;
  PlanOptions bf16;
  bf16.precision = Precision::kBf16;
  const auto p32 = cache.get_or_build(A, f32);
  bool hit = true;
  const auto pbf = cache.get_or_build(A, bf16, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(p32.get(), pbf.get());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(p32->precision(), Precision::kF32);
  EXPECT_EQ(pbf->precision(), Precision::kBf16);
  // And the second lookup at each precision hits its own entry.
  cache.get_or_build(A, f32, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_build(A, bf16, &hit);
  EXPECT_TRUE(hit);
}

TEST(Executor, RejectsPlanOfDifferentPrecision) {
  const Csr A = gen_uniform(64, 64, 0.1, 1);
  SpmmConfig cfg = evaluation_config(64, 8);
  cfg.precision = Precision::kF64;
  const auto plan = build_plan(A, {cfg.tiling, default_ssf_threshold(), 1.0,
                                   Precision::kBf16});
  DenseMatrix B(A.cols, 8);
  Rng rng(1);
  B.randomize(rng);
  EXPECT_THROW(SpmmExecutor(cfg).execute(KernelKind::kCsrCStationaryRowWarp, *plan, B),
               ConfigError);
}

TEST(Serialize, ValueWidthRoundTripsAndMismatchIsTyped) {
  const Csr A = gen_uniform(64, 64, 0.08, 5);
  const CsrT<double> a64 = retype<double>(A);
  std::stringstream ss;
  save_csr(ss, a64);
  const CsrT<double> back = load_csr<double>(ss);
  EXPECT_EQ(back.val, a64.val);
  EXPECT_EQ(back.col_idx, a64.col_idx);
  // Loading the f64 stream as f32 must fail loudly (typed), never
  // reinterpret 8-byte values as pairs of floats.
  std::stringstream ss2;
  save_csr(ss2, a64);
  EXPECT_THROW(load_csr<float>(ss2), ParseError);
}

TEST(MagnitudePruned, DeterministicBlockStructureAtRequestedDensity) {
  const index_t n = 128, bs = 16;
  const Csr A = gen_magnitude_pruned(n, n, 0.25, bs, 42);
  const Csr A2 = gen_magnitude_pruned(n, n, 0.25, bs, 42);
  EXPECT_EQ(A.val, A2.val);
  EXPECT_EQ(A.col_idx, A2.col_idx);
  // Kept blocks are fully dense, so nnz is an exact multiple of the
  // block area and matches the top-`density` fraction of blocks.
  const i64 blocks = static_cast<i64>(n / bs) * (n / bs);
  const i64 kept = std::llround(0.25 * static_cast<double>(blocks));
  EXPECT_EQ(A.nnz(), kept * bs * bs);
  // A different seed ranks different blocks.
  const Csr B = gen_magnitude_pruned(n, n, 0.25, bs, 43);
  EXPECT_NE(A.col_idx, B.col_idx);
}

}  // namespace
}  // namespace nmdt
