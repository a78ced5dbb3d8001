// SIMD dispatch tests.
//
// Every dispatched axpy tier (AVX2 / NEON / whatever the host has)
// reproduces the portable scalar reference BITWISE for all three
// precisions, ragged K, and unaligned row pointers — the unfused
// mul-then-add numerics the rest of the determinism suite is built on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

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

}  // namespace
}  // namespace nmdt
