// Deterministic, seedable pseudo-random number generation.
//
// Every matrix in the evaluation suite is generated from an explicit
// 64-bit seed through this generator, so all figures are reproducible
// bit-for-bit across runs and machines (DESIGN.md Sec. 5).  The core is
// xoshiro256** (Blackman & Vigna), chosen for speed and quality; the
// seeding path runs the seed through SplitMix64 so small consecutive
// seeds yield decorrelated streams.
#pragma once

#include <array>
#include <vector>

#include "util/types.hpp"

namespace nmdt {

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = u64;

  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed via SplitMix64.
  void reseed(u64 seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~u64{0}; }

  result_type operator()() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  u64 below(u64 n);

  /// Uniform integer in [lo, hi] inclusive.
  i64 range(i64 lo, i64 hi);

  /// Standard normal via Box–Muller.  No second value is cached: each
  /// call takes its own draws.  Matrix generation runs on the request
  /// path (`gen:` specs), but every generated matrix depends on this
  /// draw sequence, so a faster variant must keep it.
  double normal();

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<u64, 4> state_{};
};

/// Zipf-distributed integer sampler over {0, .., n-1} with exponent s.
///
/// Used by the power-law matrix generators: row/column popularity in
/// real graph adjacency matrices follows a heavy-tailed distribution,
/// which is what makes the paper's SSF skewness term informative.
/// Implemented by inverse-transform over the precomputed CDF; O(log n)
/// per sample.
class ZipfSampler {
 public:
  ZipfSampler(i64 n, double exponent);

  i64 operator()(Rng& rng) const;

  i64 size() const { return static_cast<i64>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace nmdt
