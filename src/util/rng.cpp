#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace nmdt {

namespace {
u64 splitmix64(u64& x) {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

void Rng::reseed(u64 seed) {
  u64 s = seed;
  for (auto& w : state_) w = splitmix64(s);
  // All-zero state is a fixed point of xoshiro; splitmix64 cannot produce
  // four zero words from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

u64 Rng::below(u64 n) {
  NMDT_REQUIRE(n > 0, "Rng::below requires n > 0");
  // Threshold-modulo rejection: a raw draw below 2^64 mod n is redrawn,
  // so the accepted range is a multiple of n and `r % n` is unbiased.
  // Two 64-bit divisions per call.  Generator goldens
  // (Generators.OutputMatchesParentGolden) pin the draw sequence:
  // changing this method changes every generated matrix.
  const u64 threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const u64 r = (*this)();
    if (r >= threshold) return r % n;
  }
}

i64 Rng::range(i64 lo, i64 hi) {
  NMDT_REQUIRE(lo <= hi, "Rng::range requires lo <= hi");
  const u64 span = static_cast<u64>(hi - lo) + 1;
  return lo + static_cast<i64>(below(span));
}

double Rng::normal() {
  // Box–Muller; reject u1 == 0 to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

ZipfSampler::ZipfSampler(i64 n, double exponent) {
  NMDT_REQUIRE(n > 0, "ZipfSampler requires n > 0");
  NMDT_REQUIRE(exponent >= 0.0, "ZipfSampler requires a non-negative exponent");
  cdf_.resize(static_cast<usize>(n));
  double acc = 0.0;
  for (i64 k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[static_cast<usize>(k)] = acc;
  }
  const double total = acc;
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail short
}

i64 ZipfSampler::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<i64>(it - cdf_.begin());
}

}  // namespace nmdt
