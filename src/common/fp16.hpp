#pragma once

// Software emulation of IEEE 754 binary16 ("half", fp16) arithmetic.
//
// The CS-1 datapath performs fp16 adds, multiplies, and fused
// multiply-accumulate (FMAC, no rounding of the product prior to the add) in
// 4-way SIMD. We have no such hardware here, so every operation is emulated
// bit-accurately: operands are binary16, the mathematically exact result is
// formed in binary64 (exact for +, -, *, and the FMAC sum, since any such
// result is an integer multiple of 2^-48 with fewer than 53 significant
// bits), and a single round-to-nearest-even brings it back to binary16.
// Division and sqrt round through binary64 first; the double-rounding
// discrepancy this admits requires the exact quotient to sit within 2^-42
// ulp of a binary16 tie, which never matters at the precision scales this
// library studies.

#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <limits>

namespace wss {

namespace detail {

/// Round an IEEE binary64 value to the nearest binary16 bit pattern
/// (round-to-nearest, ties-to-even), handling subnormals, overflow to
/// infinity, and NaN propagation. Inline: it runs on every emulated fp16
/// operation of the simulated datapath.
inline std::uint16_t fp16_bits_from_double(double value) noexcept {
  const std::uint64_t dbits = std::bit_cast<std::uint64_t>(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((dbits >> 48) & 0x8000u);
  const int dexp = static_cast<int>((dbits >> 52) & 0x7FF);
  const std::uint64_t dmant = dbits & 0x000FFFFFFFFFFFFFull;

  if (dexp == 0x7FF) {
    if (dmant != 0) {
      return static_cast<std::uint16_t>(sign | 0x7E00u); // quiet NaN
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u); // infinity
  }

  // Unbiased exponent of the double (treat subnormal doubles as zero for
  // binary16 purposes: their magnitude is below 2^-1022, far under the
  // binary16 subnormal floor of 2^-24).
  if (dexp == 0) {
    return sign;
  }
  const int e = dexp - 1023;

  if (e >= 16) {
    // Overflows binary16 (max finite 65504 has e == 15). Values in
    // [65504 + 16, 2^16) also round to infinity; catch them below via the
    // mantissa path, so only e >= 16 short-circuits here.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  // 53-bit significand of |value|, implicit leading one made explicit.
  const std::uint64_t sig = (1ull << 52) | dmant;

  if (e >= -14) {
    // Normal binary16 range (possibly rounding up into infinity).
    // Keep 11 significand bits; 42 bits fall away.
    const std::uint64_t keep = sig >> 42;
    const std::uint64_t rem = sig & ((1ull << 42) - 1);
    const std::uint64_t halfway = 1ull << 41;
    std::uint64_t rounded = keep;
    if (rem > halfway || (rem == halfway && (keep & 1))) {
      ++rounded;
    }
    int he = e;
    if (rounded == (1ull << 11)) { // carry out of the significand
      rounded >>= 1;
      ++he;
    }
    if (he >= 16) {
      return static_cast<std::uint16_t>(sign | 0x7C00u);
    }
    const std::uint16_t hexp = static_cast<std::uint16_t>(he + 15);
    const std::uint16_t hman = static_cast<std::uint16_t>(rounded & 0x3FFu);
    return static_cast<std::uint16_t>(sign | (hexp << 10) | hman);
  }

  // Subnormal binary16 (or underflow to zero). The value is
  // sig * 2^(e-52); binary16 subnormals are k * 2^-24, k in [0, 2^10).
  // shift = number of significand bits dropped to land on 2^-24 grid.
  const int shift = 42 + (-14 - e);
  if (shift >= 64) {
    return sign; // far below denorm_min/2: rounds to zero
  }
  const std::uint64_t keep = sig >> shift;
  const std::uint64_t rem = sig & ((1ull << shift) - 1);
  const std::uint64_t halfway = 1ull << (shift - 1);
  std::uint64_t rounded = keep;
  if (rem > halfway || (rem == halfway && (keep & 1))) {
    ++rounded;
  }
  if (rounded >= (1ull << 10)) {
    // Rounded up into the smallest normal.
    return static_cast<std::uint16_t>(sign | 0x0400u);
  }
  return static_cast<std::uint16_t>(sign | static_cast<std::uint16_t>(rounded));
}

/// Exact widening of a binary16 bit pattern to binary64, built from the
/// bits: the sign moves to bit 63, a normal's exponent is rebiased
/// (15 -> 1023) with its 10-bit fraction left-aligned, and a subnormal
/// k * 2^-24 is the exactly representable product of k and a power of
/// two. Infinities keep their sign; every NaN widens to the positive
/// quiet NaN.
inline double double_from_fp16_bits(std::uint16_t bits) noexcept {
  const std::uint64_t sign = static_cast<std::uint64_t>(bits & 0x8000u) << 48;
  const std::uint64_t hexp = (bits >> 10) & 0x1Fu;
  const std::uint64_t hman = bits & 0x3FFu;

  if (hexp == 0x1F) {
    if (hman != 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return std::bit_cast<double>(sign | 0x7FF0000000000000ull);
  }
  if (hexp == 0) {
    const double magnitude = static_cast<double>(hman) * 0x1p-24;
    return sign != 0 ? -magnitude : magnitude;
  }
  return std::bit_cast<double>(sign | ((hexp + (1023 - 15)) << 52) |
                               (hman << 42));
}

} // namespace detail

/// IEEE binary16 value emulated in software. All arithmetic rounds to
/// nearest-even after each operation, exactly as a binary16 hardware
/// datapath would.
class fp16_t {
public:
  constexpr fp16_t() noexcept = default;

  /// Converting constructor: rounds to nearest binary16.
  explicit fp16_t(double value) noexcept
      : bits_(detail::fp16_bits_from_double(value)) {}
  explicit fp16_t(float value) noexcept
      : bits_(detail::fp16_bits_from_double(static_cast<double>(value))) {}
  explicit fp16_t(int value) noexcept
      : bits_(detail::fp16_bits_from_double(static_cast<double>(value))) {}

  /// Reinterpret a raw bit pattern as a binary16 value.
  static constexpr fp16_t from_bits(std::uint16_t bits) noexcept {
    fp16_t h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }

  /// Exact widening conversions (binary16 is a subset of binary32/64).
  [[nodiscard]] double to_double() const noexcept {
    return detail::double_from_fp16_bits(bits_);
  }
  [[nodiscard]] float to_float() const noexcept {
    return static_cast<float>(to_double());
  }
  explicit operator double() const noexcept { return to_double(); }
  explicit operator float() const noexcept { return to_float(); }

  [[nodiscard]] bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_inf() const noexcept {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }
  [[nodiscard]] bool is_finite() const noexcept {
    return (bits_ & 0x7C00u) != 0x7C00u;
  }
  [[nodiscard]] bool is_subnormal() const noexcept {
    return (bits_ & 0x7C00u) == 0 && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_zero() const noexcept {
    return (bits_ & 0x7FFFu) == 0;
  }
  [[nodiscard]] bool sign_bit() const noexcept { return (bits_ & 0x8000u) != 0; }

  friend fp16_t operator+(fp16_t a, fp16_t b) noexcept {
    return fp16_t(a.to_double() + b.to_double());
  }
  friend fp16_t operator-(fp16_t a, fp16_t b) noexcept {
    return fp16_t(a.to_double() - b.to_double());
  }
  friend fp16_t operator*(fp16_t a, fp16_t b) noexcept {
    return fp16_t(a.to_double() * b.to_double());
  }
  friend fp16_t operator/(fp16_t a, fp16_t b) noexcept {
    return fp16_t(a.to_double() / b.to_double());
  }
  friend fp16_t operator-(fp16_t a) noexcept {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }
  fp16_t& operator+=(fp16_t o) noexcept { return *this = *this + o; }
  fp16_t& operator-=(fp16_t o) noexcept { return *this = *this - o; }
  fp16_t& operator*=(fp16_t o) noexcept { return *this = *this * o; }
  fp16_t& operator/=(fp16_t o) noexcept { return *this = *this / o; }

  // IEEE comparisons (NaN compares false, +0 == -0).
  friend bool operator==(fp16_t a, fp16_t b) noexcept {
    return a.to_double() == b.to_double();
  }
  friend bool operator!=(fp16_t a, fp16_t b) noexcept { return !(a == b); }
  friend bool operator<(fp16_t a, fp16_t b) noexcept {
    return a.to_double() < b.to_double();
  }
  friend bool operator<=(fp16_t a, fp16_t b) noexcept {
    return a.to_double() <= b.to_double();
  }
  friend bool operator>(fp16_t a, fp16_t b) noexcept { return b < a; }
  friend bool operator>=(fp16_t a, fp16_t b) noexcept { return b <= a; }

private:
  std::uint16_t bits_ = 0;
};

/// Fused multiply-accumulate with binary16 result: d = a*b + c with NO
/// rounding of the product prior to the add (the CS-1 FMAC semantics).
/// The exact value of a*b + c for binary16 inputs fits in binary64, so one
/// final rounding reproduces the hardware bit-for-bit.
inline fp16_t fmac(fp16_t a, fp16_t b, fp16_t c) noexcept {
  return fp16_t(a.to_double() * b.to_double() + c.to_double());
}

/// Mixed-precision multiply-accumulate: binary16 multiply feeding a binary32
/// accumulator (the CS-1 mixed hp-multiply / sp-add mode used for inner
/// products). The product of two binary16 values is exact in binary32; the
/// accumulation rounds to binary32 once per step, as the hardware does.
inline float mixed_fma(fp16_t a, fp16_t b, float acc) noexcept {
  return acc + a.to_float() * b.to_float();
}

fp16_t sqrt(fp16_t x) noexcept;
fp16_t abs(fp16_t x) noexcept;

/// Distance in representable binary16 values between a and b (0 if equal).
/// NaN arguments yield the maximum distance. Useful for accuracy tests.
std::uint32_t fp16_ulp_distance(fp16_t a, fp16_t b) noexcept;

std::ostream& operator<<(std::ostream& os, fp16_t h);

/// Traits mirroring std::numeric_limits for the emulated type.
struct fp16_limits {
  static constexpr int digits = 11;        // significand bits incl. hidden
  static constexpr int max_exponent = 16;  // 2^15 <= max < 2^16
  static constexpr int min_exponent = -13; // smallest normal = 2^-14
  static fp16_t max() noexcept { return fp16_t::from_bits(0x7BFFu); }      // 65504
  static fp16_t min() noexcept { return fp16_t::from_bits(0x0400u); }      // 2^-14
  static fp16_t denorm_min() noexcept { return fp16_t::from_bits(0x0001u); } // 2^-24
  static fp16_t epsilon() noexcept { return fp16_t::from_bits(0x1400u); }  // 2^-10
  static fp16_t infinity() noexcept { return fp16_t::from_bits(0x7C00u); }
  static fp16_t quiet_nan() noexcept { return fp16_t::from_bits(0x7E00u); }
  static fp16_t lowest() noexcept { return fp16_t::from_bits(0xFBFFu); }
};

} // namespace wss
