// SIMD dispatch and counting-fast-path tests.
//
// Two bit-identity contracts introduced by the serial hot-loop
// overhaul are pinned here:
//
//  * every dispatched axpy tier (AVX2 / NEON / whatever the host has)
//    reproduces the portable scalar reference BITWISE for all three
//    precisions, ragged K, and unaligned row pointers — the unfused
//    mul-then-add numerics the rest of the determinism suite is built
//    on;
//
//  * the counting-mode fast path (granule-aggregated counter updates,
//    no per-sector event walk) books exactly the KernelCounters and
//    MemStats of the event-emission path, for every kernel family and
//    across the sharded jobs axis.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/executor.hpp"
#include "gpusim/memory_system.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "util/precision.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nmdt {
namespace {

// The K values the micro-kernel must handle exactly: below one vector,
// one short of a vector, one full vector, a blocked row, and a blocked
// row plus a scalar tail.
constexpr index_t kRaggedK[] = {1, 7, 8, 64, 65};

/// Restore the startup dispatch tier on scope exit.
class TierGuard {
 public:
  TierGuard() : saved_(simd::active_tier()) {}
  ~TierGuard() { simd::force_tier(saved_); }

 private:
  simd::Tier saved_;
};

/// Restore the counting fast path on scope exit.
class FastPathGuard {
 public:
  FastPathGuard() : saved_(MemorySystem::counting_fast_path_enabled()) {}
  ~FastPathGuard() { MemorySystem::set_counting_fast_path_for_test(saved_); }

 private:
  bool saved_;
};

/// Run the dispatched axpy and the scalar reference on identical inputs
/// (deliberately mis-aligned by `offset` elements) and compare bitwise.
template <class V>
void check_axpy_matches_scalar(index_t k, usize offset, u64 seed) {
  using C = typename VTraits<V>::compute_t;
  Rng rng(seed);
  // Pad so the offset pointers stay in bounds and start off any natural
  // vector alignment.
  std::vector<V> b(static_cast<usize>(k) + offset + 1);
  std::vector<C> c_ref(static_cast<usize>(k) + offset + 1);
  for (auto& v : b) v = VTraits<V>::from_compute(static_cast<C>(rng.uniform() - 0.5));
  for (auto& v : c_ref) v = static_cast<C>(rng.uniform() - 0.5);
  std::vector<C> c_simd = c_ref;
  const V a = VTraits<V>::from_compute(static_cast<C>(rng.uniform() * 3.0 - 1.5));

  if constexpr (std::is_same_v<V, float>) {
    simd::axpy_f32_scalar(a, b.data() + offset, c_ref.data() + offset, k);
  } else if constexpr (std::is_same_v<V, double>) {
    simd::axpy_f64_scalar(a, b.data() + offset, c_ref.data() + offset, k);
  } else {
    simd::axpy_bf16_scalar(a, b.data() + offset, c_ref.data() + offset, k);
  }
  simd::axpy<V>(a, b.data() + offset, c_simd.data() + offset, k);

  ASSERT_EQ(std::memcmp(c_simd.data(), c_ref.data(), c_ref.size() * sizeof(C)), 0)
      << "k=" << k << " offset=" << offset;
}

TEST(SimdDispatch, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  EXPECT_TRUE(simd::tier_supported(simd::active_tier()));
  EXPECT_NE(simd::tier_name(simd::active_tier()), nullptr);
}

TEST(SimdDispatch, ForceTierRejectsUnsupportedAndKeepsBinding) {
  const TierGuard guard;
  const simd::Tier before = simd::active_tier();
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (simd::tier_supported(t)) continue;
    EXPECT_FALSE(simd::force_tier(t));
    EXPECT_EQ(simd::active_tier(), before);
  }
  EXPECT_TRUE(simd::force_tier(simd::Tier::kScalar));
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
}

TEST(SimdAxpy, EveryTierMatchesScalarReferenceBitwise) {
  const TierGuard guard;
  u64 seed = 1;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (!simd::tier_supported(t)) continue;
    ASSERT_TRUE(simd::force_tier(t));
    SCOPED_TRACE(simd::tier_name(t));
    for (index_t k : kRaggedK) {
      for (usize offset : {usize{0}, usize{1}, usize{3}}) {
        check_axpy_matches_scalar<float>(k, offset, seed++);
        check_axpy_matches_scalar<double>(k, offset, seed++);
        check_axpy_matches_scalar<bf16_t>(k, offset, seed++);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Counting-mode fast path: counters-only accounting must be
// indistinguishable from the event-emission walk it replaces.
// ---------------------------------------------------------------------

void expect_same_run(const SpmmResult& fast, const SpmmResult& slow) {
  const auto x = result_bits(fast);
  const auto y = result_bits(slow);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0);
  EXPECT_EQ(fast.counters, slow.counters);
  EXPECT_EQ(fast.mem, slow.mem);
  EXPECT_EQ(fast.engine, slow.engine);
  EXPECT_EQ(fast.timing.total_ns, slow.timing.total_ns);
}

TEST(CountingFastPath, CountersBitIdenticalToEventPathAllKernels) {
  const FastPathGuard guard;
  const Csr A = gen_uniform(1024, 1024, 0.004, 13);
  Rng rng(17);
  DenseMatrix B(1024, 32);
  B.randomize(rng);
  for (KernelKind kind : kAllKernels) {
    for (int jobs : {1, 4}) {
      SpmmConfig cfg;  // default mem_mode is kCounting
      cfg.jobs = jobs;
      SCOPED_TRACE(std::string(kernel_name(kind)) + " jobs=" + std::to_string(jobs));
      MemorySystem::set_counting_fast_path_for_test(true);
      const SpmmResult fast = run_one_shot(kind, A, B, cfg);
      MemorySystem::set_counting_fast_path_for_test(false);
      const SpmmResult slow = run_one_shot(kind, A, B, cfg);
      expect_same_run(fast, slow);
    }
  }
}

TEST(CountingFastPath, HoldsAcrossPrecisions) {
  const FastPathGuard guard;
  const Csr A = gen_uniform(512, 512, 0.01, 23);
  Rng rng(29);
  DenseMatrix B(512, 48);
  B.randomize(rng);
  for (Precision p : {Precision::kF64, Precision::kBf16}) {
    for (KernelKind kind : kAllKernels) {
      SpmmConfig cfg;
      cfg.precision = p;
      SCOPED_TRACE(std::string(kernel_name(kind)) + " " + precision_name(p));
      MemorySystem::set_counting_fast_path_for_test(true);
      const SpmmResult fast = run_one_shot(kind, A, B, cfg);
      MemorySystem::set_counting_fast_path_for_test(false);
      const SpmmResult slow = run_one_shot(kind, A, B, cfg);
      expect_same_run(fast, slow);
    }
  }
}

}  // namespace
}  // namespace nmdt
