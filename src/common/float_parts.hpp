// Exact decomposition of binary floating point values into
// sign / unbiased exponent / p-bit integer mantissa, and recomposition.
//
// This is the front end of every quantiser in the library: it models the
// "FP16 with an 11-bit mantissa and implicit leading one" input the paper's
// hardware consumes (Section III.A), while remaining exact for any p <= 53.
#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/bitutils.hpp"

namespace bbal {

/// A value decomposed as (-1)^negative * (mantissa / 2^(p-1)) * 2^exponent.
/// For non-zero values `mantissa` lies in [2^(p-1), 2^p): the implicit
/// leading one is bit p-1. Zero is represented with `zero == true`.
struct FloatParts {
  bool negative = false;
  int exponent = 0;
  std::uint64_t mantissa = 0;
  bool zero = true;
};

namespace detail {
/// decompose() for zero and subnormal x.
[[nodiscard]] FloatParts decompose_small(double x, int precision_bits);
}  // namespace detail

/// Decompose `x` with a `precision_bits`-wide mantissa (round-to-nearest-even).
/// precision_bits must be in [2, 53]. NaN/Inf are not accepted (asserted).
/// Inline: it is the front end of every per-element quantiser loop.
[[nodiscard]] inline FloatParts decompose(double x, int precision_bits) {
  assert(precision_bits >= 2 && precision_bits <= 53);
  assert(std::isfinite(x));
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ffu);
  if (biased == 0) return detail::decompose_small(x, precision_bits);
  // Normal double: round the 53-bit significand (implicit one restored)
  // straight from the IEEE-754 fields.
  FloatParts parts;
  parts.zero = false;
  parts.negative = (bits >> 63) != 0;
  const std::uint64_t implicit_one = std::uint64_t{1} << 52;
  const std::uint64_t significand = (bits & low_mask(52)) | implicit_one;
  parts.mantissa = shr_rne(significand, 53 - precision_bits);
  parts.exponent = biased - 1023;
  if (parts.mantissa == (std::uint64_t{1} << precision_bits)) {
    parts.mantissa >>= 1;  // rounding carry: 1.111..1 -> 10.00..0
    ++parts.exponent;
  }
  return parts;
}

/// Exact inverse of decompose (up to the rounding performed there).
[[nodiscard]] double compose(const FloatParts& parts, int precision_bits);

/// compose(decompose(x, p), p): x rounded to a p-bit mantissa
/// (round-to-nearest-even), computed in place on the IEEE-754 fields.
[[nodiscard]] double round_to_precision(double x, int precision_bits);

/// x * 2^e, bit-identical to std::ldexp(x, e) for finite x. When 2^e is a
/// normal double the product is one multiply: both it and ldexp are the
/// correctly rounded value of the same real number.
[[nodiscard]] inline double scale_pow2(double x, int e) {
  if (e >= -1022 && e <= 1023) {
    const auto biased = static_cast<std::uint64_t>(e + 1023);
    return x * std::bit_cast<double>(biased << 52);
  }
  return std::ldexp(x, e);
}

/// Unbiased exponent of |x| (position of the leading one), or `zero_exponent`
/// for x == 0. Equivalent to decompose(x, p).exponent for any p when no
/// mantissa rounding carry occurs; cheap helper for exponent statistics.
[[nodiscard]] int exponent_of(double x, int zero_exponent = -127);

/// FP16 (IEEE binary16) emulation: round `x` to the nearest representable
/// half-precision value (round-to-nearest-even, gradual underflow,
/// saturating at +-65504 rather than producing infinities).
[[nodiscard]] double to_fp16(double x);

/// Number of mantissa bits (incl. implicit one) of FP16: the paper's p = 11.
inline constexpr int kFp16MantissaBits = 11;

/// FP16 exponent range for normal numbers.
inline constexpr int kFp16MinExponent = -14;
inline constexpr int kFp16MaxExponent = 15;

}  // namespace bbal
