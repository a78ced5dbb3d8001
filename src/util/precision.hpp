// The value-precision axis of the SpMM pipeline.
//
// The paper evaluates everything at FP32; this header opens that choice
// into a scenario axis.  Three precisions are supported end to end:
//
//   * kF32  — IEEE binary32, the paper's datatype and the default.  The
//     float instantiation of every templated component is byte-for-byte
//     the pre-refactor code path, so default-precision results stay
//     bitwise identical.
//   * kF64  — IEEE binary64.  Storage and accumulation both widen.
//   * kBf16 — bfloat16, software-emulated: values are *stored* as the
//     top 16 bits of a binary32 (u16, 2 bytes — which is what the
//     footprint/traffic model sees) and *computed* in binary32, with a
//     round-to-nearest-even narrowing on every store.  This is the
//     widen-multiply-accumulate discipline of real bf16 FMA units, and
//     because rounding is a pure function of the accumulated float, the
//     PR 2 shard-merge bit-identity guarantee carries over unchanged:
//     results are invariant to --jobs within bf16.
//
// VTraits<V> separates the storage scalar (what sits in format vectors
// and drives simulated DRAM bytes via sizeof) from the compute scalar
// (what the FMA datapath accumulates in).  dispatch_precision() turns
// the runtime Precision enum into the storage-type template parameter.
#pragma once

#include <bit>
#include <cmath>
#include <string>

#include "util/types.hpp"

namespace nmdt {

enum class Precision : u8 {
  kF32 = 0,  ///< binary32 storage + binary32 accumulate (paper default)
  kF64 = 1,  ///< binary64 storage + binary64 accumulate
  kBf16 = 2, ///< bfloat16 storage (u16) + binary32 accumulate
};

inline constexpr Precision kAllPrecisions[] = {Precision::kF32, Precision::kF64,
                                               Precision::kBf16};

/// Software bfloat16: the top half of a binary32.  Trivially copyable
/// (lives in format vectors and serialized payloads as a raw u16);
/// arithmetic never happens on the narrow type — widen to float first.
struct bf16_t {
  u16 bits = 0;

  constexpr bf16_t() = default;

  /// Round-to-nearest-even narrowing from binary32 (the hardware bf16
  /// store rule).  NaN is quieted so the narrowing can never fabricate
  /// an infinity out of a NaN payload whose low bits carried.
  static constexpr u16 round_to_nearest_even(float f) {
    const u32 u = std::bit_cast<u32>(f);
    if ((u & 0x7fffffffu) > 0x7f800000u) {  // NaN: keep sign, force quiet
      return static_cast<u16>((u >> 16) | 0x0040u);
    }
    const u32 lsb = (u >> 16) & 1u;
    return static_cast<u16>((u + 0x7fffu + lsb) >> 16);
  }

  constexpr explicit bf16_t(float f) : bits(round_to_nearest_even(f)) {}

  /// Exact widening: every bf16 is representable in binary32.
  constexpr float to_float() const {
    return std::bit_cast<float>(static_cast<u32>(bits) << 16);
  }
  constexpr explicit operator float() const { return to_float(); }

  constexpr bool operator==(const bf16_t&) const = default;
};

static_assert(sizeof(bf16_t) == 2, "bf16 storage must be 2 bytes");

/// Storage-scalar traits: the compute type paired with a storage type,
/// plus the widen/narrow conversions between them.  All lossy rounding
/// in the pipeline funnels through from_compute()/from_f32().
template <class V>
struct VTraits;

template <>
struct VTraits<float> {
  using compute_t = float;
  static constexpr Precision kPrecision = Precision::kF32;
  static constexpr float to_compute(float v) { return v; }
  static constexpr float from_compute(float v) { return v; }
  static constexpr double to_f64(float v) { return static_cast<double>(v); }
  static constexpr float from_f32(float v) { return v; }
  static constexpr float to_f32(float v) { return v; }
};

template <>
struct VTraits<double> {
  using compute_t = double;
  static constexpr Precision kPrecision = Precision::kF64;
  static constexpr double to_compute(double v) { return v; }
  static constexpr double from_compute(double v) { return v; }
  static constexpr double to_f64(double v) { return v; }
  static constexpr double from_f32(float v) { return static_cast<double>(v); }
  static constexpr float to_f32(double v) { return static_cast<float>(v); }
};

template <>
struct VTraits<bf16_t> {
  using compute_t = float;
  static constexpr Precision kPrecision = Precision::kBf16;
  static constexpr float to_compute(bf16_t v) { return v.to_float(); }
  static constexpr bf16_t from_compute(float v) { return bf16_t(v); }
  static constexpr double to_f64(bf16_t v) { return static_cast<double>(v.to_float()); }
  static constexpr bf16_t from_f32(float v) { return bf16_t(v); }
  static constexpr float to_f32(bf16_t v) { return v.to_float(); }
};

/// Bytes of one stored value at precision `p` (what footprint accounting
/// and the simulated memory system charge per element).
constexpr i64 value_bytes(Precision p) {
  switch (p) {
    case Precision::kF64: return static_cast<i64>(sizeof(double));
    case Precision::kBf16: return static_cast<i64>(sizeof(bf16_t));
    case Precision::kF32: default: return static_cast<i64>(sizeof(float));
  }
}

const char* precision_name(Precision p);

/// Parse "f32" / "f64" / "bf16" (throws ConfigError on anything else).
Precision parse_precision(const std::string& s);

/// Default eps for the fSPMV tolerance bound at this precision: roughly
/// one decimal order above the unit roundoff of the *compute* type for
/// f32/f64, and of the storage mantissa (8 bits) for bf16.
double default_tolerance(Precision p);

template <class V>
struct VTag {
  using type = V;
};

/// Runtime-enum → storage-type dispatch: f receives VTag<float>,
/// VTag<double>, or VTag<bf16_t>.
template <class F>
decltype(auto) dispatch_precision(Precision p, F&& f) {
  switch (p) {
    case Precision::kF64: return f(VTag<double>{});
    case Precision::kBf16: return f(VTag<bf16_t>{});
    case Precision::kF32: default: return f(VTag<float>{});
  }
}

}  // namespace nmdt
