// Encoded block representation and encode/decode entry points.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/float_parts.hpp"
#include "quant/format.hpp"

namespace bbal::quant {

/// One encoded element: sign, high/low-group flag (BBFP), m-bit mantissa.
struct BlockElement {
  bool negative = false;
  bool flag = false;
  std::uint32_t mantissa = 0;
};

/// Value of element `e` in a block of `fmt` with shared exponent E_s:
/// (-1)^sign * mantissa * 2^(E_s - m + 1 + flag * d).
[[nodiscard]] inline double decode_element(const BlockFormat& fmt,
                                           int shared_exponent,
                                           const BlockElement& e) {
  // Flag and sign select arithmetically: both are data dependent, so
  // branches on them would mispredict. Negation is the sign-bit flip.
  const int lift = fmt.shift_distance() * static_cast<int>(e.flag);
  const double mag =
      scale_pow2(static_cast<double>(e.mantissa),
                 shared_exponent - fmt.mantissa_bits + 1 + lift);
  const std::uint64_t sign = static_cast<std::uint64_t>(e.negative) << 63;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(mag) ^ sign);
}

/// A block of values sharing one exponent, plus enough metadata to decode.
struct EncodedBlock {
  BlockFormat format;
  int shared_exponent = kZeroBlockExponent;  ///< E_s, unbiased
  std::vector<BlockElement> elems;

  /// Quantisation step of the low (flag = 0) group: 2^(E_s - m + 1).
  [[nodiscard]] double step_low() const;
  /// Step of the high (flag = 1) group: step_low * 2^(m - o).
  [[nodiscard]] double step_high() const;

  /// Decode element `i` back to a real value.
  [[nodiscard]] double decode(std::size_t i) const;
  /// Decode the whole block. Errors when `out.size() != elems.size()`
  /// instead of trusting the caller.
  [[nodiscard]] Status decode_all(std::span<double> out) const;
  [[nodiscard]] std::vector<double> decode_all() const;

  /// Number of flagged (high-group) elements — bit-level sparsity metric.
  [[nodiscard]] std::size_t flag_count() const;
};

/// Encode `values` (any length >= 1) into one block of `fmt`.
/// The block's shared exponent follows fmt.strategy_delta (Eq. 9).
[[nodiscard]] EncodedBlock encode_block(std::span<const double> values,
                                        const BlockFormat& fmt);

/// encode_block into a caller-owned block, reusing its element storage:
/// a steady-state loop over equal-sized blocks allocates nothing. The
/// float overload encodes each value exactly as its double conversion.
void encode_block_into(std::span<const double> values, const BlockFormat& fmt,
                       EncodedBlock& block);
void encode_block_into(std::span<const float> values, const BlockFormat& fmt,
                       EncodedBlock& block);

/// Round-trip convenience: encode in consecutive blocks of fmt.block_size
/// (last block may be short) and decode back, element by element through
/// the same rules as encode_block + decode, without materialising blocks
/// (no allocation). `out` may alias `values` exactly.
void quantise(std::span<const double> values, const BlockFormat& fmt,
              std::span<double> out);
[[nodiscard]] std::vector<double> quantise(std::span<const double> values,
                                           const BlockFormat& fmt);

/// float overload used by the LLM fake-quant executor: each value is
/// quantised as its double conversion and the result rounded to float.
void quantise(std::span<const float> values, const BlockFormat& fmt,
              std::span<float> out);

}  // namespace bbal::quant
