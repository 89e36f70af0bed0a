#include "common/float_parts.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace bbal {

namespace detail {

FloatParts decompose_small(double x, int precision_bits) {
  FloatParts parts;
  parts.negative = std::signbit(x);
  if (x == 0.0) {
    parts.zero = true;
    return parts;
  }
  // Subnormal: scale so the integer part is the p-bit mantissa; round to
  // nearest even.
  parts.zero = false;
  int e2 = 0;
  const double frac = std::frexp(std::fabs(x), &e2);  // frac in [0.5, 1)
  const double scaled = std::ldexp(frac, precision_bits);
  auto mant = static_cast<std::uint64_t>(scaled);
  const double rem = scaled - static_cast<double>(mant);
  if (rem > 0.5 || (rem == 0.5 && (mant & 1u) != 0)) ++mant;
  int exponent = e2 - 1;  // value = (mant / 2^(p-1)) * 2^(e2-1)
  if (mant == (std::uint64_t{1} << precision_bits)) {
    mant >>= 1;  // rounding carry: 1.111..1 -> 10.00..0
    ++exponent;
  }
  assert(mant >= (std::uint64_t{1} << (precision_bits - 1)));
  assert(mant < (std::uint64_t{1} << precision_bits));
  parts.mantissa = mant;
  parts.exponent = exponent;
  return parts;
}

}  // namespace detail

double compose(const FloatParts& parts, int precision_bits) {
  assert(precision_bits >= 2 && precision_bits <= 53);
  if (parts.zero) return parts.negative ? -0.0 : 0.0;
  const double mag = scale_pow2(static_cast<double>(parts.mantissa),
                                parts.exponent - (precision_bits - 1));
  return parts.negative ? -mag : mag;
}

double round_to_precision(double x, int precision_bits) {
  assert(precision_bits >= 2 && precision_bits <= 53);
  assert(std::isfinite(x));
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if (((bits >> 52) & 0x7ffu) == 0)  // zero or subnormal
    return compose(decompose(x, precision_bits), precision_bits);
  // Round-to-nearest-even on the dropped fraction bits. A carry out of the
  // fraction increments the exponent field, which is exactly the
  // 1.111..1 -> 10.00..0 renormalisation (and overflows to infinity at the
  // top of the range, as ldexp does).
  const int drop = 53 - precision_bits;
  if (drop == 0) return x;
  const std::uint64_t lsb = (bits >> drop) & 1u;
  const std::uint64_t rounded =
      (bits + (std::uint64_t{1} << (drop - 1)) - 1 + lsb) & ~low_mask(drop);
  return std::bit_cast<double>(rounded);
}

int exponent_of(double x, int zero_exponent) {
  if (x == 0.0) return zero_exponent;
  int e2 = 0;
  (void)std::frexp(std::fabs(x), &e2);
  return e2 - 1;
}

double to_fp16(double x) {
  assert(std::isfinite(x));
  if (x == 0.0) return x;
  const double kMax = 65504.0;
  if (x > kMax) return kMax;
  if (x < -kMax) return -kMax;

  // The 11-bit rounding stands when its result is an FP16 normal number.
  const double rounded = round_to_precision(x, kFp16MantissaBits);
  if (std::fabs(rounded) >= std::ldexp(1.0, kFp16MinExponent)) return rounded;

  // Subnormal range: quantum is fixed at 2^-24.
  const double q = std::ldexp(1.0, -24);
  const double n = std::nearbyint(x / q);  // assumes default RNE mode
  return n * q;
}

}  // namespace bbal
