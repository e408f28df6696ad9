#include "common/fp16.hpp"

#include <cmath>
#include <ostream>

namespace wss {

fp16_t sqrt(fp16_t x) noexcept { return fp16_t(std::sqrt(x.to_double())); }

fp16_t abs(fp16_t x) noexcept {
  return fp16_t::from_bits(static_cast<std::uint16_t>(x.bits() & 0x7FFFu));
}

std::uint32_t fp16_ulp_distance(fp16_t a, fp16_t b) noexcept {
  if (a.is_nan() || b.is_nan()) {
    return 0xFFFFFFFFu;
  }
  // Map the sign-magnitude bit patterns onto a monotone integer line.
  auto order = [](std::uint16_t bits) -> std::int32_t {
    const std::int32_t mag = bits & 0x7FFF;
    return (bits & 0x8000u) ? -mag : mag;
  };
  const std::int32_t oa = order(a.bits());
  const std::int32_t ob = order(b.bits());
  return static_cast<std::uint32_t>(oa > ob ? oa - ob : ob - oa);
}

std::ostream& operator<<(std::ostream& os, fp16_t h) {
  return os << h.to_double();
}

} // namespace wss
