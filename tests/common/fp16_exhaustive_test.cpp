// Exhaustive and property-based checks of the binary16 emulation: these
// sweep the full 16-bit pattern space (cheap) and large random operand
// sets, pinning down round-to-nearest-even at every boundary. The paper's
// numerics rest entirely on this layer being bit-exact.

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>

#include "common/fp16.hpp"
#include "common/rng.hpp"

namespace wss {
namespace {

TEST(Fp16Exhaustive, NegationIsBitExactForAllPatterns) {
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const fp16_t h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    const fp16_t n = -h;
    EXPECT_EQ(n.bits(), static_cast<std::uint16_t>(bits ^ 0x8000u));
  }
}

TEST(Fp16Exhaustive, AbsClearsOnlySignBit) {
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const fp16_t h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    EXPECT_EQ(abs(h).bits(), static_cast<std::uint16_t>(bits & 0x7FFFu));
  }
}

TEST(Fp16Exhaustive, ConversionIsMonotoneOnPositives) {
  // Widening all positive finite patterns gives a strictly increasing
  // sequence of doubles (the bit ordering is the value ordering).
  double prev = -1.0;
  for (std::uint32_t bits = 0; bits < 0x7C00u; ++bits) {
    const double v =
        fp16_t::from_bits(static_cast<std::uint16_t>(bits)).to_double();
    EXPECT_GT(v, prev) << "bits=" << bits;
    prev = v;
  }
}

/// Reference widening, written the textbook way: sign * significand *
/// 2^exponent through std::ldexp, infinities signed, every NaN the
/// positive quiet NaN.
double ldexp_widen(std::uint16_t bits) {
  const double sign = (bits & 0x8000u) != 0 ? -1.0 : 1.0;
  const int exp = (bits >> 10) & 0x1F;
  const int man = bits & 0x3FF;
  if (exp == 0x1F) {
    return man != 0 ? std::numeric_limits<double>::quiet_NaN()
                    : sign * std::numeric_limits<double>::infinity();
  }
  if (exp == 0) return sign * std::ldexp(static_cast<double>(man), -24);
  return sign * std::ldexp(static_cast<double>(1024 + man), exp - 25);
}

TEST(Fp16Exhaustive, WideningMatchesLdexpReferenceBitForBit) {
  // Bit patterns, not values: -0 must stay -0 and each NaN must widen to
  // exactly the positive quiet NaN, which == cannot tell apart.
  const auto pattern = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr std::uint64_t kPositiveQuietNan = 0x7FF8000000000000ull;
  int nans = 0;
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const double got = fp16_t::from_bits(h).to_double();
    ASSERT_EQ(pattern(got), pattern(ldexp_widen(h))) << "bits=" << bits;
    if (fp16_t::from_bits(h).is_nan()) {
      ASSERT_EQ(pattern(got), kPositiveQuietNan) << "bits=" << bits;
      ++nans;
    }
  }
  // Spot-check the classes the sweep must have crossed.
  EXPECT_EQ(nans, 2 * 1023);
  EXPECT_EQ(pattern(fp16_t::from_bits(0x8000u).to_double()), pattern(-0.0));
  EXPECT_EQ(fp16_t::from_bits(0x0001u).to_double(), 0x1p-24);
  EXPECT_EQ(fp16_t::from_bits(0x83FFu).to_double(), -1023 * 0x1p-24);
  EXPECT_EQ(fp16_t::from_bits(0xFC00u).to_double(),
            -std::numeric_limits<double>::infinity());
}

TEST(Fp16Exhaustive, RoundingIsIdempotent) {
  // Rounding an already-representable value changes nothing: narrowing the
  // widened value of every finite pattern is the identity.
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const fp16_t h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    if (!h.is_finite() || h.is_zero()) continue;
    EXPECT_EQ(fp16_t(h.to_double()).bits(), h.bits());
  }
}

TEST(Fp16Exhaustive, AdditionCommutesBitwise) {
  Rng rng(7);
  for (int i = 0; i < 50000; ++i) {
    const fp16_t a(rng.uniform(-1000.0, 1000.0));
    const fp16_t b(rng.uniform(-1000.0, 1000.0));
    EXPECT_EQ((a + b).bits(), (b + a).bits());
    EXPECT_EQ((a * b).bits(), (b * a).bits());
  }
}

TEST(Fp16Exhaustive, RoundingNeverSkipsNeighbors) {
  // For random doubles, the rounded fp16 value is one of the two
  // representable neighbors: |v - rounded| <= ulp and the other neighbor
  // is at least as far away.
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.uniform(-60000.0, 60000.0);
    const fp16_t r(v);
    const double rv = r.to_double();
    // Neighbors via bit stepping on the magnitude line.
    const std::uint16_t bits = r.bits();
    const bool positive = (bits & 0x8000u) == 0;
    const std::uint16_t mag = bits & 0x7FFFu;
    const double up = positive
                          ? fp16_t::from_bits(static_cast<std::uint16_t>(mag + 1)).to_double()
                          : fp16_t::from_bits(static_cast<std::uint16_t>(
                                                  mag == 0 ? 0 : (0x8000u | (mag - 1))))
                                .to_double();
    const double down =
        positive
            ? (mag == 0 ? -fp16_t::from_bits(1).to_double()
                        : fp16_t::from_bits(static_cast<std::uint16_t>(mag - 1)).to_double())
            : fp16_t::from_bits(static_cast<std::uint16_t>(0x8000u | (mag + 1)))
                  .to_double();
    EXPECT_LE(std::abs(v - rv), std::abs(v - up) + 1e-300) << v;
    EXPECT_LE(std::abs(v - rv), std::abs(v - down) + 1e-300) << v;
  }
}

TEST(Fp16Exhaustive, SubtractionOfEqualsIsExactZero) {
  // Sterbenz-like: a - a == +0 exactly for every finite a.
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const fp16_t h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    if (!h.is_finite()) continue;
    EXPECT_TRUE((h - h).is_zero());
  }
}

TEST(Fp16Exhaustive, MultiplyByOneIsIdentity) {
  const fp16_t one(1.0);
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const fp16_t h = fp16_t::from_bits(static_cast<std::uint16_t>(bits));
    if (!h.is_finite()) continue;
    if (h.is_zero()) {
      EXPECT_TRUE((h * one).is_zero());
    } else {
      EXPECT_EQ((h * one).bits(), h.bits());
    }
  }
}

#if defined(__FLT16_MANT_DIG__)
TEST(Fp16Exhaustive, DivisionMatchesHardware) {
  Rng rng(21);
  for (int i = 0; i < 50000; ++i) {
    const fp16_t a(rng.uniform(-100.0, 100.0));
    fp16_t b(rng.uniform(-100.0, 100.0));
    if (b.is_zero()) b = fp16_t(1.0);
    const _Float16 ha = std::bit_cast<_Float16>(a.bits());
    const _Float16 hb = std::bit_cast<_Float16>(b.bits());
    EXPECT_EQ((a / b).bits(),
              std::bit_cast<std::uint16_t>(static_cast<_Float16>(ha / hb)))
        << a << " / " << b;
  }
}
#endif

} // namespace
} // namespace wss
